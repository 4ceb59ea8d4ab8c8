from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import per_entry
from cachenet import metrics
from cachenet.delivery import (
    Block,
    DeliveryPlan,
    build_centralized_plan,
    build_decentralized_plan,
    plan_sdof,
    verify_completeness,
)
from cachenet.metrics import (
    _tier_fractions,
    mc_ndt,
    memory_share,
    ndt_centralized,
    ndt_closed_form,
    ndt_finite,
    ndt_oracle,
    ndt_report,
    sdof_achievable,
    sdof_baseline,
    sdof_report,
    sweep_figure,
)
from cachenet.model import ConfigurationError, DemandVector, NetworkConfig, binomial
from cachenet.placement import place_decentralized, subset_profile


def make_cfg(k_t, k_r, n, m_t, m_r):
    return NetworkConfig(k_t=k_t, k_r=k_r, n_files=n, m_t=m_t, m_r=m_r)


def corner_cfg(k_t, k_r, t_t, t_r):
    n = k_t * k_r
    return make_cfg(k_t, k_r, n, Fraction(t_t * n, k_t), Fraction(t_r * n, k_r))


class TestSdof:
    @pytest.mark.parametrize(
        "k_t,m_t,k_r,m_r,n,expected",
        [
            (4, 2, 4, 1, 4, Fraction(24, 7)),
            (3, 2, 3, 0, 3, Fraction(9, 4)),
            (4, 2, 4, 2, 4, Fraction(4)),
            (4, 2, 4, 3, 4, Fraction(4)),
        ],
    )
    def test_values(self, k_t, m_t, k_r, m_r, n, expected):
        assert sdof_achievable(make_cfg(k_t, k_r, n, m_t, m_r)) == expected

    def test_cap_flag(self):
        assert not sdof_report(make_cfg(4, 4, 4, 2, 1)).capped
        assert sdof_report(make_cfg(4, 4, 4, 2, 2)).capped  # 24/6 ties the cap
        assert sdof_report(make_cfg(4, 4, 4, 2, 3)).capped  # 24/5 exceeds it

    @pytest.mark.parametrize("k_t,k_r", list(itertools.product(range(1, 8), repeat=2)))
    def test_cap_flag_is_the_ratio_test(self, k_t, k_r):
        # capped means C K_R / (C + K_R - t_T - t_R) reaches K_R, or that denominator is <= 0
        for t_t in range(1, k_t + 1):
            for t_r in range(k_r + 1):
                c, denom = binomial(k_t, t_t), binomial(k_t, t_t) + k_r - t_t - t_r
                expected = denom <= 0 or Fraction(c * k_r, denom) >= k_r
                assert sdof_report(corner_cfg(k_t, k_r, t_t, t_r)).capped == expected, (k_t, k_r, t_t, t_r)

    def test_per_user(self):
        report = sdof_report(make_cfg(4, 4, 4, 2, 1))
        assert report.per_user == Fraction(6, 7)
        assert report.proposed <= 4 and report.per_user <= 1

    def test_baseline(self):
        assert sdof_baseline(make_cfg(4, 4, 4, 2, 1)) == 3
        assert sdof_baseline(make_cfg(4, 4, 4, 2, 2)) == 4
        assert sdof_baseline(make_cfg(4, 4, 4, 2, 4)) == 4  # clamp at K_R

    def test_non_integral_rejected(self):
        with pytest.raises(ConfigurationError, match="use memory-sharing between integral corners"):
            sdof_achievable(make_cfg(3, 3, 4, 2, 1))

    def test_needs_transmitter_caching(self):
        with pytest.raises(ConfigurationError):
            sdof_achievable(make_cfg(2, 2, 2, 0, 2))

    def test_dominates_baseline_on_grid(self):
        for k_t, k_r in itertools.product((2, 3, 4), repeat=2):
            for t_t in range(1, k_t + 1):
                for t_r in range(k_r + 1):
                    cfg = corner_cfg(k_t, k_r, t_t, t_r)
                    proposed, baseline = sdof_achievable(cfg), sdof_baseline(cfg)
                    if binomial(k_t, t_t) >= t_t + t_r:
                        assert proposed >= baseline, (k_t, k_r, t_t, t_r)
                    if baseline == k_r:
                        assert proposed == k_r  # matches the reference bound when it is tight

    def test_reciprocal_monotone_in_receiver_cache(self):
        for k_t, k_r in itertools.product((2, 3, 4), repeat=2):
            for t_t in range(1, k_t + 1):
                vals = [1 / sdof_achievable(corner_cfg(k_t, k_r, t_t, t)) for t in range(k_r + 1)]
                assert vals == sorted(vals, reverse=True)

    def test_reciprocal_monotone_in_transmitter_cache_while_diversity_grows(self):
        # monotone benefit holds while C(K_T,t_T) is non-decreasing; past the
        # peak the scheme loses subfile diversity and can do worse (pinned below)
        for k_t, k_r in itertools.product((2, 3, 4), repeat=2):
            for t_r in range(k_r + 1):
                top = (k_t + 1) // 2  # binomial(k_t, t) non-decreasing up to here
                vals = [1 / sdof_achievable(corner_cfg(k_t, k_r, t, t_r)) for t in range(1, top + 1)]
                assert vals == sorted(vals, reverse=True)

    def test_full_replication_can_lose_diversity(self):
        assert sdof_achievable(corner_cfg(2, 4, 1, 0)) == Fraction(8, 5)
        assert sdof_achievable(corner_cfg(2, 4, 2, 0)) == Fraction(4, 3)


class TestNdtClosedForm:
    def test_worked_example(self):
        assert ndt_closed_form(make_cfg(3, 3, 3, 2, 1)) == Fraction(62, 81)

    def test_full_cache(self):
        assert ndt_closed_form(make_cfg(3, 3, 3, 2, 3)) == 0

    def test_zero_receiver_cache_correction_term(self):
        assert ndt_closed_form(make_cfg(3, 3, 3, 2, 0)) == 4

    def test_non_integral_t_t_rejected(self):
        with pytest.raises(ConfigurationError):
            ndt_closed_form(make_cfg(3, 3, 4, 2, 1))

    def test_fractional_m_r_allowed(self):
        # only t_T must be integral
        value = ndt_closed_form(make_cfg(3, 3, 3, 2, Fraction(3, 2)))
        assert 0 < value < Fraction(62, 81)

    def test_monotone_above_one(self):
        for k_t, k_r, n, m_t in ((3, 3, 3, 2), (4, 4, 4, 2), (2, 4, 4, 2)):
            vals = [ndt_closed_form(make_cfg(k_t, k_r, n, m_t, m_r)) for m_r in range(1, n + 1)]
            assert vals == sorted(vals, reverse=True)


class TestNdtOracle:
    def test_worked_example(self):
        total, breakdown = ndt_oracle(make_cfg(3, 3, 3, 2, 1))
        assert total == Fraction(62, 81)
        assert breakdown == ((0, Fraction(32, 81)), (1, Fraction(8, 27)), (2, Fraction(2, 27)))

    def test_full_cache(self):
        total, breakdown = ndt_oracle(make_cfg(3, 3, 3, 2, 3))
        assert total == 0 and all(c == 0 for _, c in breakdown)

    def test_zero_cache_disagrees_with_closed_form(self):
        cfg = make_cfg(3, 3, 3, 2, 0)
        total, _ = ndt_oracle(cfg)
        assert total == Fraction(4, 3)
        assert ndt_closed_form(cfg) == 4  # exposed, not reconciled

    def test_matches_closed_form_in_valid_regime(self):
        # agreement needs C(K_T,t_T) = K_T and <= 3 receivers, M_R >= 1
        for k_t, t_t in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3)):
            for k_r in (2, 3):
                for m_r in range(1, k_r + 1):
                    n = k_r
                    m_t = Fraction(t_t * n, k_t)
                    cfg = make_cfg(k_t, k_r, n, m_t, m_r)
                    assert ndt_oracle(cfg)[0] == ndt_closed_form(cfg), (k_t, t_t, k_r, m_r)

    def test_discrepancy_flagged_outside_regime(self):
        cfg = make_cfg(4, 4, 4, 2, 1)  # C(4,2)=6 != 4
        report = ndt_report(cfg)
        assert report.formula_value != report.oracle_value
        assert any("differs" in f for f in report.flags)

    def test_reference_example_flag(self):
        report = ndt_report(make_cfg(3, 3, 3, 2, 1))
        assert report.formula_value == report.oracle_value == Fraction(62, 81)
        assert any("147/95" in f and "14/9" in f for f in report.flags)


class TestPerEntryEquivalence:
    """Counting entries by caching weight gives exactly the per-entry sums."""

    # (8, 8) is left out: its per-entry reference takes seconds
    @pytest.mark.parametrize("k_t,k_r", [*itertools.product(range(1, 7), repeat=2), (2, 7), (2, 8), (4, 8)])
    def test_tier_fractions_and_oracle(self, k_t, k_r):
        for t_t in range(1, k_t + 1):
            # the worst-case tier plans and their ledgers depend on K_T, K_R and t_T only
            cfg = corner_cfg(k_t, k_r, t_t, 0)
            plans = build_decentralized_plan(cfg, DemandVector.worst_case(cfg))
            sdofs = [per_entry.plan_sdof(cfg, plan) if plan.blocks else None for plan in plans]
            for t_r in range(k_r + 1):
                cfg = corner_cfg(k_t, k_r, t_t, t_r)
                masses = per_entry.tier_fractions(cfg, plans)
                assert _tier_fractions(cfg, plans) == masses, (k_t, k_r, t_t, t_r)
                # one plan holding every caching weight at once
                mixed = [DeliveryPlan(blocks=tuple(b for p in plans for b in p.blocks), mode="mixed")]
                assert _tier_fractions(cfg, mixed) == per_entry.tier_fractions(cfg, mixed) == [sum(masses)]
                breakdown = tuple(
                    (t, m / s if s else Fraction(0)) for t, (m, s) in enumerate(zip(masses, sdofs))
                )
                expected = (sum((c for _, c in breakdown), Fraction(0)), breakdown)
                assert ndt_oracle(cfg) == expected, (k_t, k_r, t_t, t_r)


class TestNdtCentralized:
    def test_values_4x4(self):
        cfg = make_cfg(4, 4, 4, 2, 1)
        assert ndt_centralized(cfg) == 1  # K_R (1 - M_R/N) over the baseline sDoF 3
        # the same conversion with the proposed sDoF 24/7
        assert cfg.k_r * (1 - cfg.m_r / cfg.n_files) / sdof_achievable(cfg) == Fraction(7, 8)

    def test_full_cache(self):
        assert ndt_centralized(make_cfg(4, 4, 4, 2, 4)) == 0


class TestMemoryShare:
    def test_corner_and_midpoint(self):
        pts = [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))]
        assert memory_share(pts, Fraction(0)) == 1
        assert memory_share(pts, Fraction(1)) == Fraction(1, 2)

    def test_dominated_corner_skipped(self):
        pts = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(9, 10)), (Fraction(2), Fraction(0))]
        assert memory_share(pts, Fraction(1)) == Fraction(1, 2)

    def test_against_pairwise_mixing_oracle(self):
        # envelope value = best achievable by time-sharing any two corners
        rng = random.Random(3)
        for _ in range(50):
            pts = [
                (Fraction(m), Fraction(rng.randint(0, 40), rng.randint(1, 8)))
                for m in sorted(rng.sample(range(12), rng.randint(2, 6)))
            ]
            lo, hi = pts[0][0], pts[-1][0]
            q = Fraction(rng.randint(int(lo * 4), int(hi * 4)), 4)
            best = None
            for (m1, v1), (m2, v2) in itertools.combinations(pts, 2):
                if not m1 <= q <= m2:
                    continue
                lam = (q - m1) / (m2 - m1)
                mix = v1 + lam * (v2 - v1)
                best = mix if best is None else min(best, mix)
            for m, v in pts:
                if m == q:
                    best = v if best is None else min(best, v)
            assert memory_share(pts, q) == best

    def test_out_of_range(self):
        pts = [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))]
        with pytest.raises(ValueError):
            memory_share(pts, Fraction(3))
        with pytest.raises(ValueError):
            memory_share([(Fraction(0), Fraction(1))], Fraction(0))


class TestSweeps:
    def test_fig2_corners(self):
        rows = sweep_figure(make_cfg(4, 4, 4, 2, 0), "fig2")
        assert [r[1] for r in rows] == [
            Fraction(1, 3),
            Fraction(7, 24),
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 4),
        ]
        assert [r[2] for r in rows] == [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 4),
        ]
        assert all(prop <= base for _, prop, base in rows)

    def test_fig2_memory_shared_midpoint(self):
        # at 4x4 every integer M_R is a corner, so the rows are the corner points
        corners = [(m, proposed) for m, proposed, _ in sweep_figure(make_cfg(4, 4, 4, 2, 0), "fig2")]
        assert memory_share(corners, Fraction(1, 2)) == (Fraction(1, 3) + Fraction(7, 24)) / 2

    def test_fig4(self):
        rows = sweep_figure(make_cfg(3, 3, 3, 2, 0), "fig4")
        assert [r[1] for r in rows] == [Fraction(4), Fraction(62, 81), Fraction(28, 81), Fraction(0)]
        assert [r[2] for r in rows] == [Fraction(3, 2), Fraction(2, 3), Fraction(1, 3), Fraction(0)]
        dec = [r[1] for r in rows[1:]]
        assert dec == sorted(dec, reverse=True)  # non-increasing for M_R >= 1

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            sweep_figure(make_cfg(4, 4, 4, 2, 0), "fig9")


class TestMonteCarlo:
    def test_mean_near_asymptotic(self):
        cfg = make_cfg(3, 3, 3, 2, 1)
        mc = mc_ndt(cfg, DemandVector.worst_case(cfg), 10**5, seeds=list(range(1, 11)))
        assert abs(mc.mean - float(Fraction(62, 81))) <= 3 * mc.stderr

    def test_stderr_shrinks_with_file_size(self):
        demand = DemandVector((0, 1, 2))
        errs = []
        cfg = make_cfg(3, 3, 3, 2, 1)
        for f_bits in (10**4, 10**5, 10**6):
            errs.append(mc_ndt(cfg, demand, f_bits, seeds=list(range(1, 9))).stderr)
        assert errs[0] > errs[1] > errs[2]

    def test_per_seed_values_exact_and_deterministic(self):
        cfg = make_cfg(3, 3, 3, 2, 1)
        a = mc_ndt(cfg, DemandVector.worst_case(cfg), 3000, seeds=[4, 5])
        b = mc_ndt(cfg, DemandVector.worst_case(cfg), 3000, seeds=[4, 5])
        assert a.values == b.values
        assert all(isinstance(v, Fraction) for v in a.values)

    def test_needs_file_bits(self):
        # F is a required parameter, and each draw refuses one that is not a positive int
        cfg = make_cfg(3, 3, 3, 2, 1)
        with pytest.raises(TypeError):
            mc_ndt(cfg, DemandVector.worst_case(cfg), seeds=[1])
        with pytest.raises(ConfigurationError, match="^file_bits must be a positive integer$"):
            mc_ndt(cfg, DemandVector.worst_case(cfg), 0, seeds=[1])

    @pytest.mark.parametrize("k", [3, 4])
    def test_per_seed_values_match_mask_reference(self, k):
        cfg = make_cfg(k, k, k, 2, 1)
        demand = DemandVector.worst_case(cfg)
        assert list(mc_ndt(cfg, demand, 10**4, seeds=[1, 2]).values) == per_entry.mc_ndt_values(cfg, demand, 10**4, [1, 2])

    @pytest.mark.parametrize("file_bits", [1, 1001])
    @pytest.mark.parametrize("k_t,m_t", [(3, 2), (4, Fraction(3, 2))])
    @pytest.mark.parametrize("k_r", [1, 3, 8, 9])
    def test_per_seed_values_match_mask_reference_at_odd_file_lengths(self, k_r, k_t, m_t, file_bits):
        # neither C(3,2) = 3 nor C(4,2) = 6 divides F = 1001, so the last partition is short; 8 receivers
        # fill a one-byte code and 9 take the 16-bit one; at F = 1 no receiver caches a bit
        cfg = make_cfg(k_t, k_r, 3, m_t, 1)
        demand = DemandVector.worst_case(cfg)
        assert list(mc_ndt(cfg, demand, file_bits, seeds=[1, 2]).values) == per_entry.mc_ndt_values(cfg, demand, file_bits, [1, 2])

    def test_one_seed_stays_below_a_bool_mask(self):
        # tracemalloc sees numpy buffers; a K_R x N x F bool mask alone would take K_R*N*F bytes
        cfg, f_bits = make_cfg(6, 6, 6, 2, 1), 10**6
        demand = DemandVector.worst_case(cfg)
        tracemalloc.start()
        try:
            mc_ndt(cfg, demand, f_bits, seeds=[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.k_r * cfg.n_files * f_bits

    def test_finite_ndt_profiles_only_the_files_its_plans_name(self, monkeypatch):
        # the tier plans of demand (1,1,1) name file 1 only, so its profile is the only one taken
        cfg = make_cfg(3, 3, 3, 2, 1)
        plans = build_decentralized_plan(cfg, DemandVector((0, 0, 0)))
        profiled = []

        def spy(placement, f):
            profiled.append(f)
            return subset_profile(placement, f)

        monkeypatch.setattr(metrics, "subset_profile", spy)
        assert ndt_finite(place_decentralized(cfg, 1000, 1), plans) == Fraction(1153, 1500)
        assert profiled == [0]


def _with_tx_sets(plans: list[DeliveryPlan], tx_sets_of) -> list[DeliveryPlan]:
    """The plans with each run's tx sets replaced by `tx_sets_of(run)`."""
    return [
        DeliveryPlan(
            blocks=tuple(Block(b.position, tuple(r._replace(tx_sets=tx_sets_of(r)) for r in b.runs)) for b in plan.blocks),
            mode=plan.mode,
        )
        for plan in plans
    ]


class TestFiniteNdtPartition:
    def setup_method(self):
        self.cfg = make_cfg(4, 4, 4, 2, 1)
        self.plans = build_decentralized_plan(self.cfg, DemandVector.worst_case(self.cfg))
        self.placement = place_decentralized(self.cfg, 1001, 3)

    def test_equal_but_distinct_tx_sets_give_the_same_value(self):
        # every run gets its own copy of the partition tuple, equal to the shared one but not the same object
        copied = _with_tx_sets(self.plans, lambda r: tuple(list(r.tx_sets)))
        assert all(r.tx_sets is not self.plans[0].blocks[0].runs[0].tx_sets for p in copied for _, r in p.runs())
        value = ndt_finite(self.placement, self.plans)
        assert ndt_finite(self.placement, copied) == value
        # the partition in another order covers the same bits
        assert ndt_finite(self.placement, _with_tx_sets(self.plans, lambda r: r.tx_sets[::-1])) == value
        assert value == per_entry.mc_ndt_values(self.cfg, DemandVector.worst_case(self.cfg), 1001, [3])[0]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda ts: ts[:-1],  # one set short
            lambda ts: ts[:-1] + ts[:1],  # one set twice, another missing
            lambda ts: ts[:-1] + (frozenset({0}),),  # a set of the wrong size
            lambda ts: ts[:-1] + (frozenset({0, 4}),),  # a transmitter outside the network
            lambda ts: (),
        ],
        ids=["short", "repeat", "size", "outside", "empty"],
    )
    def test_refuses_a_run_over_part_of_the_partition(self, damage):
        # only the last tier's last run is damaged: every run is checked, not only the first of each plan
        *plans, top = self.plans
        *blocks, final = top.blocks
        *runs, r = final.runs
        damaged = Block(final.position, (*runs, r._replace(tx_sets=damage(r.tx_sets))))
        plans.append(DeliveryPlan(blocks=(*blocks, damaged), mode=top.mode))
        with pytest.raises(ValueError, match=r"not the whole partition of C\(4,2\) = 6$"):
            ndt_finite(self.placement, plans)


def test_oracle_and_plan_sdof_leave_blocks_unexpanded():
    # ledgers, tier masses and completeness read runs: the library has no expansion of a plan into records
    cfg = make_cfg(4, 4, 4, 2, 1)
    assert not hasattr(DeliveryPlan, "entries")
    demand = DemandVector.worst_case(cfg)
    tiers = build_decentralized_plan(cfg, demand)
    ndt_oracle(cfg, demand=demand)
    central = build_centralized_plan(cfg, None, demand)
    plan_sdof(cfg, central)
    assert verify_completeness(cfg, [central], "centralized", demand).complete
    blocks = [block for plan in [*tiers, central] for block in plan.blocks]
    # 8 tier blocks and 3 centralized ones, each with 4 receivers x C(4,2) tx subsets
    assert sum(map(len, blocks)) == 11 * 4 * 6
