from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import per_entry
from cachenet import phy
from cachenet.delivery import (
    Block,
    DeliveryPlan,
    MalformedPlanError,
    Run,
    build_centralized_plan,
    build_decentralized_plan,
    check_plan_file,
    parse_plans,
    serialize_plan,
)
from cachenet.model import ConfigurationError, DemandVector, NetworkConfig, SubfileId
from cachenet.phy import (
    GENERICITY_THRESHOLD,
    IA_ASSUMPTION_NOTE,
    MAX_SAMPLE_RETRIES,
    GenericityError,
    _minor_check,
    _minors,
    verify_plan_phy,
)
from cachenet.placement import place_centralized
from per_entry import ScheduledSubfile, block_of, entries, equivalent_gains, minor


def channel(k_r: int, k_t: int, seed: int, size: int | None = None) -> np.ndarray:
    """The entries `phy._draw` gives for `seed`, checked for genericity up to minor size `size` (every size by default)."""
    return phy._draw(k_r, k_t, seed, size or min(k_r, k_t), frozenset())[0]


def smallest_minor(h: np.ndarray) -> float:
    """The smallest |square minor| of h over every size, from the batched check."""
    return _minor_check(h, min(h.shape), frozenset())[0]


def library_precoder(h: np.ndarray, tx_set, zf_targets) -> tuple[np.ndarray, float]:
    """The weights across the sorted tx set and the scale of one precoder, built as `verify_plan_phy` builds it.

    That is the precoders of a one-entry block's `_layout`, then their `weights` on the channel.  The
    weights do not depend on the destination, which is the first receiver off the ZF targets.
    """
    dest = min(set(range(h.shape[0])) - set(zf_targets))
    block = Block(0, (Run(0, dest, frozenset(), frozenset(zf_targets), (frozenset(tx_set),)),))
    distinct = phy._layout((block,), *h.shape).precoders
    weights, scales = distinct.weights(h, tables(h))
    return weights[sorted(tx_set), 0], float(scales[0])


def tables(h) -> dict[int, np.ndarray]:
    """Every square-minor table of h by size, as `verify_plan_phy` hands the kept ones to `weights`."""
    return dict(enumerate(_minors(h), start=1))


def table_minor(h, rows_removed, cols_removed) -> complex:
    """The minor of h without the given rows and columns, read from the `_minors` table of its size."""
    kept = [tuple(i for i in range(n) if i not in removed) for n, removed in zip(h.shape, (rows_removed, cols_removed))]
    ranks = [list(itertools.combinations(range(n), len(kept[0]))).index(keep) for n, keep in zip(h.shape, kept)]
    return complex(list(_minors(h))[len(kept[0]) - 1][tuple(ranks)])


def det_cofactor(a: np.ndarray) -> complex:
    """Brute-force determinant by first-row cofactor expansion (test oracle)."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return complex(a[0, 0])
    total = 0.0
    for j in range(n):
        sub = np.delete(a[1:], j, axis=1)
        total += (-1) ** j * a[0, j] * det_cofactor(sub)
    return complex(total)


class TestSampling:
    def test_deterministic(self):
        a = channel(4, 4, seed=1)
        b = channel(4, 4, seed=1)
        assert np.array_equal(a, b)
        c = channel(4, 4, seed=2)
        assert not np.array_equal(a, c)

    def test_scalar_channel(self):
        h = channel(1, 1, seed=3)
        assert abs(h[0, 0]) > 1e-9

    def test_all_minors_generic(self):
        h, smallest, _, _ = phy._draw(4, 4, seed=5, size=4, keep=frozenset())
        for size in (1, 2, 3, 4):
            for rows in itertools.combinations(range(4), size):
                for cols in itertools.combinations(range(4), size):
                    sub = h[np.ix_(rows, cols)]
                    assert abs(det_cofactor(sub)) > 1e-9
        assert smallest_minor(h) == smallest >= GENERICITY_THRESHOLD


def minors_generic_loop(h: np.ndarray, threshold: float) -> bool:
    """One det per square minor (test oracle for the batched genericity check)."""
    k_r, k_t = h.shape
    return all(
        abs(np.linalg.det(h[np.ix_(rows, cols)])) >= threshold
        for size in range(1, min(k_r, k_t) + 1)
        for rows in itertools.combinations(range(k_r), size)
        for cols in itertools.combinations(range(k_t), size)
    )


class TestGenericity:
    @pytest.mark.parametrize("k_r,k_t", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3)])
    def test_planted_degenerate_minors_rejected(self, k_r, k_t):
        rng = np.random.default_rng(k_r * 10 + k_t)
        for size in range(1, min(k_r, k_t) + 1):
            for _ in range(5):
                h = rng.standard_normal((k_r, k_t)) + 1j * rng.standard_normal((k_r, k_t))
                assert smallest_minor(h) >= 1e-9 and minors_generic_loop(h, 1e-9)
                rows = np.sort(rng.choice(k_r, size=size, replace=False))
                cols = np.sort(rng.choice(k_t, size=size, replace=False))
                # make the last planted column a combination of the others: a singular minor
                sub = h[np.ix_(rows, cols)]
                sub[:, -1] = sub[:, :-1] @ rng.standard_normal(size - 1) if size > 1 else 0.0
                h[np.ix_(rows, cols)] = sub
                assert not minors_generic_loop(h, 1e-9)
                assert not smallest_minor(h) >= 1e-9


def complex_gaussian(rng: np.random.Generator, k_r: int, k_t: int) -> np.ndarray:
    return (rng.standard_normal((k_r, k_t)) + 1j * rng.standard_normal((k_r, k_t))) / np.sqrt(2)


def smallest_minor_loop(h: np.ndarray) -> float:
    k_r, k_t = h.shape
    return min(
        abs(np.linalg.det(h[np.ix_(rows, cols)]))
        for size in range(1, min(k_r, k_t) + 1)
        for rows in itertools.combinations(range(k_r), size)
        for cols in itertools.combinations(range(k_t), size)
    )


class TestMinorRecurrence:
    @pytest.mark.parametrize("k_r,k_t", list(itertools.product(range(1, 8), repeat=2)))
    def test_minors_of_each_size_match_det(self, k_r, k_t):
        h = complex_gaussian(np.random.default_rng(100 * k_r + k_t), k_r, k_t)
        by_size = list(_minors(h))
        assert len(by_size) == min(k_r, k_t)
        for size, minors in enumerate(by_size, start=1):
            expected = np.array(
                [
                    [np.linalg.det(h[np.ix_(rows, cols)]) for cols in itertools.combinations(range(k_t), size)]
                    for rows in itertools.combinations(range(k_r), size)
                ]
            )
            np.testing.assert_allclose(minors, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k_r,k_t", list(itertools.product(range(1, 7), repeat=2)))
    def test_decisions_match_loop(self, k_r, k_t):
        # thresholds near the typical smallest |minor|, so both verdicts occur
        rng = np.random.default_rng(1000 + 10 * k_r + k_t)
        verdicts = []
        for i in range(200):
            h = complex_gaussian(rng, k_r, k_t)
            threshold = (0.01, 0.1, 0.5)[i % 3]
            verdicts.append(smallest_minor(h) >= threshold)
            assert verdicts[-1] == minors_generic_loop(h, threshold)
        assert any(verdicts) and not all(verdicts)

    def test_forced_redraws_match_loop(self, monkeypatch):
        threshold = 0.2
        monkeypatch.setattr(phy, "GENERICITY_THRESHOLD", threshold)
        total = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for redraws in range(MAX_SAMPLE_RETRIES):
                entries = complex_gaussian(rng, 3, 3)
                if minors_generic_loop(entries, threshold):
                    break
            h, smallest, drawn_redraws, _ = phy._draw(3, 3, seed, 3, frozenset())
            assert np.array_equal(h, entries)
            assert drawn_redraws == redraws
            assert smallest == pytest.approx(smallest_minor_loop(entries), rel=1e-12)
            assert smallest >= threshold
            total += redraws
        assert total > 0

    def test_default_channel_headroom(self):
        h, smallest, redraws, _ = phy._draw(5, 4, seed=3, size=4, keep=frozenset())
        assert redraws == 0
        assert smallest == pytest.approx(smallest_minor_loop(h), rel=1e-12)


class TestZfWeights:
    def test_two_tx_swap_rule(self):
        # weights proportional to (h_t2, -h_t1) for two transmitters and one target
        h = channel(4, 4, seed=7)
        weights, scale = library_precoder(h, (0, 1), (2,))
        raw = weights * scale
        assert raw[0] == pytest.approx(h[2, 1])
        assert raw[1] == pytest.approx(-h[2, 0])
        assert np.max(np.abs(weights)) == pytest.approx(1.0)

    def test_single_tx(self):
        h = channel(3, 3, seed=8)
        weights, scale = library_precoder(h, (1,), ())
        assert weights.tolist() == [1.0] and scale == 1.0

    def test_three_tx_two_targets_null(self):
        h = channel(4, 4, seed=9)
        weights, _ = library_precoder(h, (0, 1, 2), (1, 3))
        g = equivalent_gains(h, (0, 1, 2), weights)
        gmax = np.max(np.abs(g))
        assert abs(g[1]) < 1e-9 * gmax and abs(g[3]) < 1e-9 * gmax

    def test_fewer_targets_than_capacity(self):
        # three cooperating transmitters, one target: only two stay active
        h = channel(3, 3, seed=10)
        weights, _ = library_precoder(h, (0, 1, 2), (2,))
        assert weights[2] == 0
        g = equivalent_gains(h, (0, 1, 2), weights)
        assert abs(g[2]) < 1e-9 * np.max(np.abs(g))

    def test_too_many_targets(self):
        h = channel(4, 4, seed=11)
        with pytest.raises(ConfigurationError, match="zero-forced at 2 receiver.s. by 2 transmitter.s.$"):
            library_precoder(h, (0, 1), (2, 3))

    def test_degenerate_subsystem(self):
        h = np.ones((3, 3), dtype=complex)  # repeated rows: no usable null direction
        with pytest.raises(GenericityError):
            library_precoder(h, (0, 1, 2), (0, 1))


class TestGains:
    def test_zero_at_target_nonzero_elsewhere(self):
        h = channel(4, 4, seed=12)
        weights, _ = library_precoder(h, (0, 1), (2,))
        g = equivalent_gains(h, (0, 1), weights)
        gmax = np.max(np.abs(g))
        assert abs(g[2]) < 1e-12 * gmax
        for j in (0, 1, 3):
            assert abs(g[j]) > 1e-12

    def test_gain_equals_minor_up_to_sign(self):
        # two-transmitter gain at rx j is the minor keeping rows {j, target} and the tx columns
        h = channel(4, 4, seed=13)
        for tx_pair in ((0, 1), (1, 3), (2, 3)):
            for target in range(4):
                weights, scale = library_precoder(h, tx_pair, (target,))
                g = equivalent_gains(h, tx_pair, weights) * scale
                for j in range(4):
                    if j == target:
                        continue
                    rows_removed = tuple(r for r in range(4) if r not in (j, target))
                    cols_removed = tuple(c for c in range(4) if c not in tx_pair)
                    m = minor(h, rows_removed, cols_removed)
                    assert min(abs(g[j] - m), abs(g[j] + m)) < 1e-12 * abs(m)

    def test_scale_invariance(self):
        h = channel(4, 4, seed=14)
        weights, _ = library_precoder(h, (0, 1, 2), (1, 2))
        zero_set = {j for j, v in enumerate(equivalent_gains(h, (0, 1, 2), weights)) if abs(v) < 1e-9}
        scaled = weights * (0.3 - 1.7j)
        zero_set_scaled = {j for j, v in enumerate(equivalent_gains(h, (0, 1, 2), scaled)) if abs(v) < 1e-9}
        assert zero_set == zero_set_scaled


class TestMinor:
    """Minors read from the `_minors` tables, against the determinant and cofactor references."""

    def test_2x2(self):
        h = channel(2, 2, seed=15)
        assert table_minor(h, (1,), (1,)) == pytest.approx(h[0, 0])

    def test_hand_fixture(self):
        h = np.array([[5, 1, 0], [1, 6, 1], [0, 1, 7]], dtype=complex)
        assert table_minor(h, (0,), (0,)) == pytest.approx(6 * 7 - 1)
        assert table_minor(h, (2,), (0,)) == pytest.approx(1 * 1 - 0 * 6)
        assert table_minor(h, (), ()) == pytest.approx(det_cofactor(h))

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, n))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rows = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            want = det_cofactor(np.delete(np.delete(a, rows, axis=0), cols, axis=1))
            for got in (table_minor(a, rows, cols), minor(a, rows, cols)):
                assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)


class TestBlockVerification:
    def _plan44(self):
        cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1)
        placement = place_centralized(cfg)
        demand = DemandVector.worst_case(cfg)
        return cfg, build_centralized_plan(cfg, placement, demand)

    def test_clean_block(self):
        cfg, plan = self._plan44()
        (report,) = verify_plan_phy(cfg, [DeliveryPlan(blocks=plan.blocks[:1], mode=plan.mode)], channel_seeds=[21])
        assert report.ok and report.checked == 24
        assert report.alignment_groups == 4  # one residual group per receiver
        assert IA_ASSUMPTION_NOTE in report.summary()

    def test_leak_is_one_violation_per_transmission(self):
        # a tolerance below rounding turns every ZF target's residual gain into a reported leak
        cfg, plan = self._plan44()
        records = entries(plan)
        assert all(len(e.zf_targets) == 1 for e in records)
        for r in verify_plan_phy(cfg, [plan], channel_seeds=5, rel_tol=1e-300):
            assert len(r.violations) == r.checked == len(records) == 72
            for v, e in zip(r.violations, records):
                (z,) = e.zf_targets
                named = f"block={e.block + 1} subfile={e.subfile.label()} dest={e.dest + 1}: "
                assert v.startswith(f"{named}zf-leak at rx {z + 1} (|gain|=") and ";" not in v

    def test_plan_monte_carlo(self):
        cfg, plan = self._plan44()
        reports = verify_plan_phy(cfg, [plan], channel_seeds=10)
        assert len(reports) == 10
        assert all(r.ok for r in reports)
        assert all(r.checked == 72 for r in reports)

    def test_decentralized_tier0_nulls_hold(self):
        cfg = NetworkConfig(k_t=3, k_r=3, n_files=3, m_t=2, m_r=1, file_bits=300)
        plan = build_decentralized_plan(cfg, DemandVector.worst_case(cfg))[0]
        reports = verify_plan_phy(cfg, [plan], channel_seeds=20)
        assert all(r.ok for r in reports)


def reference_blocks(h, blocks, rel_tol=1e-9, floor=1e-12):
    """Per-transmission reference for the batched checks, on the determinant-per-weight precoders.

    Returns (checked, violations, ic_flagged, alignment_groups, worst_leak) over `blocks`.
    """
    checked = ic_flagged = groups = 0
    violations = []
    worst_leak = 0.0
    for block in blocks:
        labels = set()
        for e in entries(block):
            weights, _ = per_entry.zf_weights(h, e.subfile.tx_set, e.zf_targets)
            checked += 1
            gains = equivalent_gains(h, e.subfile.tx_set, weights)
            gmax = float(np.max(np.abs(gains)))
            issues = []
            for z in sorted(e.zf_targets):
                worst_leak = max(worst_leak, abs(gains[z]) / gmax)
                if abs(gains[z]) > rel_tol * gmax:
                    issues.append(f"zf-leak at rx {z + 1} (|gain|={abs(gains[z]):.3e}, max {gmax:.3e})")
            if abs(gains[e.dest]) < floor * gmax:
                issues.append(f"degenerate destination gain at rx {e.dest + 1}")
            for r in range(h.shape[0]):
                if r == e.dest or r in e.zf_targets:
                    continue
                if r in e.subfile.rx_set:
                    ic_flagged += 1
                    continue
                labels.add((r, e.dest, e.subfile.rx_set, e.zf_targets))
                if abs(gains[r]) < floor * gmax:
                    issues.append(f"degenerate interference gain at rx {r + 1}")
            if issues:
                violations.append(
                    f"block={e.block + 1} subfile={e.subfile.label()} dest={e.dest + 1}: " + "; ".join(issues)
                )
        groups += len(labels)
    return checked, tuple(violations), ic_flagged, groups, worst_leak


def assert_matches_reference(report, reference):
    checked, violations, ic_flagged, groups, worst_leak = reference
    assert (report.checked, report.violations, report.ic_flagged, report.alignment_groups) == (
        checked,
        violations,
        ic_flagged,
        groups,
    )
    # gains come from one matrix product instead of one per transmission: equal up to rounding
    assert report.worst_leak == pytest.approx(worst_leak, rel=1e-9, abs=1e-12)


def integral_corners(k_t, k_r):
    """Every integral (t_T, t_R) corner of a K_T x K_R network with N = K_R files."""
    for t_t in range(1, k_t + 1):
        for t_r in range(k_r + 1):
            yield NetworkConfig(k_t=k_t, k_r=k_r, n_files=k_r, m_t=Fraction(t_t * k_r, k_t), m_r=t_r)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("k_t,k_r", list(itertools.product(range(2, 7), repeat=2)))
    def test_plan_reports_match_reference(self, k_t, k_r):
        for corner, cfg in enumerate(integral_corners(k_t, k_r)):
            demand = DemandVector.worst_case(cfg)
            plans = [[build_centralized_plan(cfg, place_centralized(cfg), demand)]]
            if cfg.t_r == 0:
                plans.append(build_decentralized_plan(cfg, demand))
            # the per-transmission reference is slow: two channels per call on small networks, one on large
            seeds = [k_t * k_r + corner + 7 * s for s in range(2 if max(k_t, k_r) <= 4 else 1)]
            for plan in plans:
                reports = verify_plan_phy(cfg, plan, channel_seeds=seeds)
                assert [r.seed for r in reports] == seeds
                for r in reports:
                    h = channel(k_r, k_t, r.seed)
                    assert_matches_reference(r, reference_blocks(h, [b for p in plan for b in p.blocks]))

    def _plan44(self):
        cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1)
        return cfg, build_centralized_plan(cfg, place_centralized(cfg), DemandVector.worst_case(cfg))

    def _assert_refused_before_any_draw(self, edit, message, monkeypatch):
        """Edit one transmission of a 4x4 (3,2) plan: `verify_plan_phy` refuses the plan with `check_plan_file`'s message."""
        # t_T = 3, t_R = 2: three transmitters per subfile zero-force at one receiver, so one more target fits
        cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=3, m_r=2)
        demand = DemandVector.worst_case(cfg)
        plan = build_centralized_plan(cfg, place_centralized(cfg), demand)
        blocks = [list(entries(b)) for b in plan.blocks]
        e = blocks[1][5]
        assert len(e.subfile.tx_set) == 3 and len(e.zf_targets) == 1 and len(e.subfile.rx_set) == 2
        blocks[1][5] = edit(e)
        crafted = DeliveryPlan(blocks=tuple(map(block_of, blocks)), mode=plan.mode)
        with pytest.raises(MalformedPlanError) as rule:
            check_plan_file(cfg, [crafted], None, demand)
        assert str(rule.value) == f"{e.subfile.label()} {message}"
        monkeypatch.setattr(phy, "_draw", lambda *args, **kwargs: pytest.fail("channel drawn"))
        with pytest.raises(MalformedPlanError) as err:
            verify_plan_phy(cfg, [crafted], channel_seeds=3)
        assert str(err.value) == str(rule.value)

    def test_destination_among_zf_targets(self, monkeypatch):
        self._assert_refused_before_any_draw(
            lambda e: e._replace(zf_targets=e.zf_targets | {e.dest}),
            "zero-forced at its destination or at a caching receiver",
            monkeypatch,
        )

    def test_destination_among_cache_holders(self, monkeypatch):
        self._assert_refused_before_any_draw(
            lambda e: e._replace(dest=min(e.subfile.rx_set)), "scheduled to a receiver that cached it", monkeypatch
        )

    def test_zf_target_among_cache_holders(self, monkeypatch):
        self._assert_refused_before_any_draw(
            lambda e: e._replace(zf_targets=e.zf_targets | {min(e.subfile.rx_set)}),
            "zero-forced at its destination or at a caching receiver",
            monkeypatch,
        )

    @pytest.mark.parametrize(
        "built,checked,message",
        [
            ((4, 4, 2, 1), (3, 3, 2, 1), "block 1: tx index 4 outside 1..3 in W1[tx=14 rx=2]"),
            ((4, 3, Fraction(3, 4), 0), (3, 3, 1, 0), "block 1: tx index 4 outside 1..3 in W1[tx=4 rx=-]"),
            ((3, 4, 4, 1), (3, 3, 3, 1), "block 1: zf index 4 outside 1..3 in W1[tx=123 rx=2]"),
        ],
        ids=["4x4-as-3x3", "4x3-as-3x3", "3x4-as-3x3"],
    )
    def test_index_outside_the_configuration_refused_before_any_draw(self, built, checked, message, monkeypatch):
        # a plan built for a larger network, checked against a 3x3 one: rule 4 of a plan file, not an IndexError
        k_t, k_r, m_t, m_r = built
        cfg = NetworkConfig(k_t=k_t, k_r=k_r, n_files=k_r, m_t=m_t, m_r=m_r)
        plan = build_centralized_plan(cfg, None, DemandVector.worst_case(cfg))
        k_t, k_r, m_t, m_r = checked
        small = NetworkConfig(k_t=k_t, k_r=k_r, n_files=k_r, m_t=m_t, m_r=m_r)
        with pytest.raises(ConfigurationError) as rule:
            check_plan_file(small, [plan], None, None)
        monkeypatch.setattr(phy, "_draw", lambda *args, **kwargs: pytest.fail("channel drawn"))
        with pytest.raises(ConfigurationError) as err:
            verify_plan_phy(small, [plan], channel_seeds=1)
        assert str(err.value) == str(rule.value) == message
        assert not isinstance(err.value, MalformedPlanError)

    def test_too_many_targets_raises(self):
        cfg, plan = self._plan44()
        e, *rest = entries(plan.blocks[0])
        assert len(e.subfile.tx_set) == 2
        # every receiver that is neither the destination nor a cache holder is a target
        bad = ScheduledSubfile(e.subfile, e.dest, frozenset(set(range(4)) - {e.dest} - e.subfile.rx_set), e.block)
        crafted = DeliveryPlan(blocks=(block_of([bad, *rest]),), mode=plan.mode)
        for check in (lambda: check_plan_file(cfg, [crafted], None, None), lambda: verify_plan_phy(cfg, [crafted], 1)):
            with pytest.raises(MalformedPlanError) as err:
                check()
            assert str(err.value) == f"block 1: {bad.subfile.label()} zero-forced at 2 receiver(s) by 2 transmitter(s)"

    def test_run_sent_to_its_cache_holder_named_before_an_earlier_run_with_too_many_targets(self, monkeypatch):
        # rule 6 (`Run.check`) holds for every run before rule 7 (`Run.check_zf`) is reported, in both checks
        cfg, plan = self._plan44()
        first, second, third, *rest = plan.blocks[0].runs
        too_many = first._replace(zf_targets=frozenset(range(4)) - {first.dest} - first.rx_set)
        to_holder = third._replace(dest=min(third.rx_set))
        crafted = replace(plan, blocks=(Block(0, (too_many, second, to_holder, *rest)), *plan.blocks[1:]))
        monkeypatch.setattr(phy, "_draw", lambda *args, **kwargs: pytest.fail("channel drawn"))
        demand = DemandVector.worst_case(cfg)
        for check in (lambda: check_plan_file(cfg, [crafted], None, demand), lambda: verify_plan_phy(cfg, [crafted], 1)):
            with pytest.raises(MalformedPlanError) as err:
                check()
            assert str(err.value) == "W3[tx=12 rx=4] scheduled to a receiver that cached it"
        # with the run sent back to its destination, both name the run with too many targets
        crafted = replace(plan, blocks=(Block(0, (too_many, *plan.blocks[0].runs[1:])), *plan.blocks[1:]))
        for check in (lambda: check_plan_file(cfg, [crafted], None, None), lambda: verify_plan_phy(cfg, [crafted], 1)):
            with pytest.raises(MalformedPlanError) as err:
                check()
            assert str(err.value) == "block 1: W1[tx=12 rx=2] zero-forced at 2 receiver(s) by 2 transmitter(s)"

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 1.0, 0.0, -1e-9])
    def test_tolerance_outside_unit_interval_rejected(self, rel_tol):
        cfg, plan = self._plan44()
        with pytest.raises(ValueError, match="tolerance must lie in"):
            verify_plan_phy(cfg, [plan], channel_seeds=1, rel_tol=rel_tol)

    def test_zero_seeds(self):
        cfg, plan = self._plan44()
        assert verify_plan_phy(cfg, [plan], channel_seeds=0) == []
        assert verify_plan_phy(cfg, [plan], channel_seeds=[]) == []

    @pytest.mark.parametrize("count", [-2, -1, True, False])
    def test_negative_or_bool_seed_count_rejected(self, count):
        # -2 would check no channel and read as verified, True would check seed 0 alone
        cfg, plan = self._plan44()
        with pytest.raises(ValueError, match="channel seed count must be a non-negative int"):
            verify_plan_phy(cfg, [plan], channel_seeds=count)

    @pytest.mark.parametrize("seeds", [[True], [1.5], ["3"], [-1], [0, 2, -1]], ids=repr)
    def test_seed_list_member_that_is_no_non_negative_int_rejected_before_any_draw(self, seeds, monkeypatch):
        # True would check seed 1 and print seed=True; a float or a str would reach numpy's seeding
        cfg, plan = self._plan44()
        monkeypatch.setattr(phy, "_draw", lambda *args, **kwargs: pytest.fail("channel drawn"))
        with pytest.raises(ValueError) as err:
            verify_plan_phy(cfg, [plan], channel_seeds=seeds)
        assert str(err.value) == f"channel seeds must be non-negative ints, got {seeds[-1]!r}"

    def test_worst_leak_is_headroom(self):
        cfg, plan = self._plan44()
        reports = verify_plan_phy(cfg, [plan], channel_seeds=5, rel_tol=1e-9)
        assert all(r.ok and 0.0 <= r.worst_leak < 1e-9 for r in reports)
        assert any(r.worst_leak > 0.0 for r in reports)

    def test_reports_carry_genericity_margin(self):
        # t_T = 2: one ZF target per transmission, so the margin covers the minors of sizes 1 and 2
        cfg, plan = self._plan44()
        reports = verify_plan_phy(cfg, [plan], channel_seeds=3)
        for r in reports:
            h, smallest, redraws, _ = phy._draw(4, 4, r.seed, 2, frozenset())
            assert smallest == _minor_check(h, 2, frozenset())[0]
            assert r.genericity_margin == smallest / GENERICITY_THRESHOLD > 1.0
            assert smallest >= smallest_minor(h)
            assert r.redraws == redraws == 0
            assert "margin" not in r.summary() and "redraw" not in r.summary()


def _workloads():
    """The benchmark's job lists, read from perfbench/workloads.py (standard library only) by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _checked_channels():
    """(K, t_T, t_R, tier plans?) -> channel seeds of every plan whose channels the goldens,
    the acceptance suite, the CI steps and `zf-verify` at workload seeds 1-11 check; N = K files."""
    cases = {
        (4, 2, 1, False): set(range(5)),  # goldens (2 seeds); acceptance `plan --verify` (3), `verify` (5)
        (3, 2, 1, True): set(range(2)),  # golden verify-decentralized
        (10, 2, 1, False): set(range(2)),  # CI 10x10 `plan --verify` (2) and `verify` (1)
        (6, 2, 1, True): set(range(1)),  # CI 6x6 decentralized `verify`
        (12, 2, 1, False): set(range(10)),  # CI 12x12 `plan --verify`
    }
    workloads = _workloads()
    for seed in range(1, 12):
        for job in workloads.make_jobs("zf-verify", seed):
            k, t_t, t_r, channel_seeds = job.params
            cases.setdefault((k, t_t, t_r, False), set()).update(channel_seeds)
    return {case: sorted(seeds) for case, seeds in cases.items()}


CHECKED_CHANNELS = _checked_channels()


def _plans(k, t_t, t_r, tiers):
    cfg = NetworkConfig(k_t=k, k_r=k, n_files=k, m_t=t_t, m_r=t_r, file_bits=1000 if tiers else None)
    demand = DemandVector.worst_case(cfg)
    if tiers:
        return cfg, build_decentralized_plan(cfg, demand)
    return cfg, [build_centralized_plan(cfg, None, demand)]


class _Replay:
    """Stands in for numpy's Generator: `standard_normal` returns the given arrays in turn."""

    def __init__(self, parts):
        self.parts = iter(parts)

    def standard_normal(self, shape):
        part = next(self.parts)
        assert part.shape == shape
        return part.copy()


def spy_minor_sizes(monkeypatch) -> list[int]:
    """Record the size of every batch of square minors `phy._minors` builds."""
    sizes: list[int] = []
    minors = phy._minors

    def spy(h):
        for size, batch in enumerate(minors(h), start=1):
            sizes.append(size)
            yield batch

    monkeypatch.setattr(phy, "_minors", spy)
    return sizes


class TestPlanSizedGenericity:
    @pytest.mark.parametrize("case", CHECKED_CHANNELS, ids=lambda c: f"{c[0]}x{c[0]}_t{c[1]}_{c[2]}" + "_tiers" * c[3])
    def test_plan_bound_draws_the_exhaustive_channels(self, case):
        # the truncated check accepts exactly the draws the exhaustive one accepts, on every seed in use
        cfg, plans = _plans(*case)
        size = phy._layout(tuple(b for p in plans for b in p.blocks), cfg.k_r, cfg.k_t).precoders.minor_size
        assert 1 < size <= cfg.t_t < cfg.k_r
        for seed in CHECKED_CHANNELS[case]:
            exhaustive, least, redraws, _ = phy._draw(cfg.k_r, cfg.k_t, seed, min(cfg.k_r, cfg.k_t), frozenset())
            truncated, smallest, truncated_redraws, _ = phy._draw(cfg.k_r, cfg.k_t, seed, size, frozenset())
            assert np.array_equal(truncated, exhaustive)
            assert truncated_redraws == redraws
            assert smallest >= least

    def test_8x8_plan_builds_no_minor_above_size_2(self, monkeypatch):
        cfg, plans = _plans(8, 2, 1, False)
        sizes = spy_minor_sizes(monkeypatch)
        reports = verify_plan_phy(cfg, plans, channel_seeds=3)
        assert all(r.ok for r in reports)
        # per channel: one table per size, up to 2; the weights read the size-1 table the check built
        assert sizes == [1, 2] * 3

    def test_larger_zf_set_raises_the_bound(self, monkeypatch):
        # one hand-built run zero-forces at three receivers with four transmitters: sizes up to 4
        cfg, (plan,) = _plans(8, 2, 1, False)
        extra = Block(len(plan.blocks), (Run(0, 0, frozenset({1}), frozenset({2, 3, 4}), (frozenset(range(4)),)),))
        crafted = DeliveryPlan(blocks=(*plan.blocks, extra), mode=plan.mode)
        assert phy._layout(crafted.blocks, cfg.k_r, cfg.k_t).precoders.minor_size == 4
        sizes = spy_minor_sizes(monkeypatch)
        reports = verify_plan_phy(cfg, [crafted], channel_seeds=2)
        assert all(r.ok for r in reports)
        # per channel: one table per size, up to 4; the weights read the tables of m = 1 and 3
        assert sizes == [1, 2, 3, 4] * 2

    def test_exhaustive_check_builds_every_size_once(self, monkeypatch):
        # the exhaustive check the plan-sized one is compared with: `_draw` at size min(K_R, K_T)
        sizes = spy_minor_sizes(monkeypatch)
        phy._draw(5, 4, seed=3, size=4, keep=frozenset())
        assert sizes == [1, 2, 3, 4]

    def test_degenerate_minor_above_the_bound_is_accepted_only_by_the_truncated_check(self, monkeypatch):
        # two draws of real and imaginary parts; in the first, rows 1-3 of column 3 are a real
        # combination of columns 1 and 2, so one 3 x 3 minor vanishes and no smaller one does
        parts = [np.random.default_rng(3).standard_normal((4, 4)) for _ in range(4)]
        for part in parts[:2]:
            part[:3, 2] = 0.7 * part[:3, 0] - 1.3 * part[:3, 1]
        planted = (parts[0] + 1j * parts[1]) / np.sqrt(2)
        assert _minor_check(planted, 2, frozenset())[0] >= GENERICITY_THRESHOLD > smallest_minor(planted)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _Replay(parts))
        truncated, _, redraws, _ = phy._draw(4, 4, 0, 2, frozenset())
        assert redraws == 0 and np.array_equal(truncated, planted)
        exhaustive, _, redraws, _ = phy._draw(4, 4, 0, 4, frozenset())
        assert redraws == 1
        assert np.array_equal(exhaustive, (parts[2] + 1j * parts[3]) / np.sqrt(2))


def precoder_plans(k_t, k_r, t_t, t_r, tiers):
    """A built centralized plan, or the tier plans, of one corner with N = K_R files."""
    cfg = NetworkConfig(k_t=k_t, k_r=k_r, n_files=k_r, m_t=Fraction(t_t * k_r, k_t), m_r=t_r)
    demand = DemandVector.worst_case(cfg)
    if tiers:
        return build_decentralized_plan(cfg, demand)
    return [build_centralized_plan(cfg, place_centralized(cfg), demand)]


def shuffled(plans, seed):
    """Every block's entries in a seeded random order, so first uses come in another order."""
    rnd = random.Random(seed)
    blocks = [rnd.sample(entries(b), len(b)) for p in plans for b in p.blocks]
    return [DeliveryPlan(blocks=tuple(map(block_of, blocks)), mode="shuffled")]


class TestPrecoderTables:
    @pytest.mark.parametrize("tiers", [False, True])
    @pytest.mark.parametrize("corner", [(4, 4, 2, 1), (5, 4, 3, 1), (6, 6, 3, 2), (4, 6, 4, 0)])
    def test_pairs_and_rows_match_per_transmission_reference(self, corner, tiers):
        plans = precoder_plans(*corner, tiers)
        # built and parsed plans share one tx_sets tuple per distinct sequence; `unshared` gives
        # every run its own equal copy, so runs are matched by value
        parsed = parse_plans("".join(serialize_plan(p) for p in plans))
        parsed_runs = [r for p in parsed for b in p.blocks for r in b.runs]
        assert len({id(r.tx_sets) for r in parsed_runs}) < len(parsed_runs)
        unshared = [
            DeliveryPlan(
                blocks=tuple(Block(b.position, tuple(r._replace(tx_sets=tuple(list(r.tx_sets))) for r in b.runs)) for b in p.blocks),
                mode=p.mode,
            )
            for p in plans
        ]
        unshared_runs = [r for p in unshared for b in p.blocks for r in b.runs]
        assert len({id(r.tx_sets) for r in unshared_runs}) == len(unshared_runs) > 1
        h = channel(corner[1], corner[0], seed=5)
        for variant in (plans, parsed, unshared, shuffled(plans, seed=sum(corner))):
            blocks = tuple(b for p in variant for b in p.blocks)
            layout = phy._layout(blocks, corner[1], corner[0])
            distinct, rows = layout.precoders, layout.rows
            pairs, reference_rows = per_entry.precoders(blocks)
            assert rows.tolist() == reference_rows
            assert [
                (distinct.tx_sets[t], distinct.targets[z]) for t, z in zip(distinct.tx_ids, distinct.target_ids)
            ] == pairs
            # each column of the batched weights is the pair's own precoder: the first m+1 of its
            # sorted transmitters are active, the largest weight is 1 and the m targets are nulled
            weights, _ = distinct.weights(h, tables(h))
            for k, (ts, targets) in enumerate(pairs):
                active = sorted(ts)[: len(targets) + 1]
                assert np.flatnonzero(weights[:, k]).tolist() == active
                assert np.max(np.abs(weights[:, k])) == pytest.approx(1.0, rel=1e-12)
                gains = np.abs(h @ weights[:, k])
                assert np.all(gains[list(targets)] <= 1e-9 * gains.max())

    def _entries44(self):
        cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1)
        plan = build_centralized_plan(cfg, place_centralized(cfg), DemandVector.worst_case(cfg))
        return list(entries(plan.blocks[0]))

    @pytest.mark.parametrize("first", ["targets", "empty"])
    def test_first_offending_pair_names_the_error(self, first, monkeypatch):
        records = self._entries44()
        e = records[3]
        too_many = e._replace(zf_targets=frozenset({0, 1, 2, 3} - {e.dest} - e.subfile.rx_set))
        assert len(too_many.subfile.tx_set) == 2
        empty = records[9]._replace(subfile=records[9].subfile._replace(tx_set=frozenset()))
        assert len(empty.zf_targets) == 1
        # the first offender is named by the delivery rule, whichever kind it is, before any channel is drawn
        offenders = [too_many, empty] if first == "targets" else [empty, too_many]
        block = block_of((*records[:2], offenders[0], *records[2:6], offenders[1], *records[6:]))
        m, n = (2, 2) if first == "targets" else (1, 0)
        message = f"block 1: {offenders[0].subfile.label()} zero-forced at {m} receiver(s) by {n} transmitter(s)"
        monkeypatch.setattr(phy, "_draw", lambda *args, **kwargs: pytest.fail("channel drawn"))
        cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1)
        plan = DeliveryPlan(blocks=(block,), mode="centralized")
        for check in (lambda: phy._layout((block,), 4, 4), lambda: verify_plan_phy(cfg, [plan], channel_seeds=1)):
            with pytest.raises(MalformedPlanError) as err:
                check()
            assert isinstance(err.value, ConfigurationError) and str(err.value) == message

    def test_degenerate_channel_names_the_first_pair(self):
        blocks = (block_of(self._entries44()),)
        distinct = phy._layout(blocks, 4, 4).precoders
        (ts, targets), *_ = per_entry.precoders(blocks)[0]
        h = np.ones((4, 4), dtype=complex)
        h[list(targets)] = 0  # every pair with these targets is degenerate; the first one used is named
        assert len([pair for pair in per_entry.precoders(blocks)[0] if pair[1] == targets]) > 1
        with pytest.raises(GenericityError) as err:
            distinct.weights(h, tables(h))
        named = f"degenerate ZF subsystem for tx={tuple(sorted(ts))} targets={tuple(sorted(targets))};"
        assert str(err.value).startswith(named)


class TestPerPrecoderChecks:
    def test_vanished_interference_gain_names_exactly_the_precoder_transmissions(self):
        # a precoder silent at one interferer: that gain is a size-(m+1) minor, so no channel the
        # genericity check accepts shows it, and the gain magnitudes are edited by hand
        cfg, (plan,) = _plans(4, 2, 1, False)
        layout = phy._layout(plan.blocks, cfg.k_r, cfg.k_t)
        distinct, rows = layout.precoders, layout.rows
        h, smallest, redraws, _ = phy._draw(4, 4, 3, 2, frozenset())
        weights, _ = distinct.weights(h, tables(h))
        mag = np.abs(h @ weights)
        assert phy._check(3, smallest, redraws, layout, mag, rel_tol=1e-9).ok
        records = entries(plan)

        def interferes(e, j):
            return j != e.dest and j not in e.zf_targets and j not in e.subfile.rx_set

        # the first (precoder, receiver) pair where the receiver interferes with a transmission
        k, rx = next((rows[i], j) for i, e in enumerate(records) for j in range(cfg.k_r) if interferes(e, j))
        mag[rx, k] = 0.0
        report = phy._check(3, smallest, redraws, layout, mag, rel_tol=1e-9)
        # every transmission of the precoder is named: two see the receiver as an interferer, one as its destination
        users = [e for e, row in zip(records, rows) if row == k]
        assert [interferes(e, rx) for e in users] == [True, False, True] and users[1].dest == rx
        assert list(report.violations) == [
            f"block={e.block + 1} subfile={e.subfile.label()} dest={e.dest + 1}: "
            f"degenerate {'destination' if e.dest == rx else 'interference'} gain at rx {rx + 1}"
            for e in users
        ]


class TestGatheredWeights:
    @pytest.mark.parametrize("k,t_t,t_r", [(4, 2, 1), (6, 3, 2), (8, 3, 1), (10, 5, 1)])
    def test_weights_match_the_determinant_reference(self, k, t_t, t_r):
        # the minors gathered from the `_minors` tables against one np.linalg.det per weight
        _, (plan,) = _plans(k, t_t, t_r, False)
        distinct = phy._layout(plan.blocks, k, k).precoders
        h = channel(k, k, seed=k, size=t_t)
        weights, scales = distinct.weights(h, tables(h))
        for row, scale, t, z in zip(weights.T, scales, distinct.tx_ids, distinct.target_ids):
            txs = sorted(distinct.tx_sets[t])
            reference, reference_scale = per_entry.zf_weights(h, txs, distinct.targets[z])
            assert np.flatnonzero(row).tolist() == txs[: len(distinct.targets[z]) + 1]
            # both are divided by their largest |weight|, so this bound is relative
            assert np.max(np.abs(row[txs] - reference)) <= 1e-12
            assert abs(scale - reference_scale) <= 1e-12 * reference_scale

    @pytest.mark.parametrize("tiers", [False, True], ids=["6x6_t3_2", "3x3_tiers"])
    def test_verification_calls_no_determinant(self, tiers, monkeypatch):
        cfg, plans = _plans(3, 2, 1, True) if tiers else _plans(6, 3, 2, False)
        blocks = tuple(b for p in plans for b in p.blocks)
        before = verify_plan_phy(cfg, plans, channel_seeds=3)
        size = phy._layout(blocks, cfg.k_r, cfg.k_t).precoders.minor_size
        references = [reference_blocks(channel(cfg.k_r, cfg.k_t, r.seed, size), blocks) for r in before]

        def no_det(*args, **kwargs):
            raise AssertionError("numpy.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", no_det)
        after = verify_plan_phy(cfg, plans, channel_seeds=3)
        assert after == before
        for report, reference in zip(after, references):
            assert report.ok
            assert_matches_reference(report, reference)


def reference_reductions(mag, targets, rel_tol):
    """Per-precoder Python loop over gain magnitudes (K_R x precoders) and each precoder's ZF targets.

    Returns the worst leak (largest |gain at a target| / largest |gain| over precoders with a nonzero
    gain) and the suspect precoders: loud at a target or quiet off the targets.
    """
    worst, suspect = 0.0, []
    for p, zf in enumerate(targets):
        gains = [float(g) for g in mag[:, p]]
        gmax = max(gains)
        at = [g for r, g in enumerate(gains) if r in zf]
        off = [g for r, g in enumerate(gains) if r not in zf]
        if gmax > 0:
            worst = max([worst] + [g / gmax for g in at])
        if any(g > rel_tol * gmax for g in at) or any(g < phy.GENERICITY_FLOOR * gmax for g in off):
            suspect.append(p)
    return worst, suspect


class TestExactReductions:
    """The receiver-axis reductions of `_check` against a per-precoder loop, with exact float equality."""

    def _gains(self, cfg, plans, seed):
        blocks = tuple(b for p in plans for b in p.blocks)
        layout = phy._layout(blocks, cfg.k_r, cfg.k_t)
        distinct = layout.precoders
        h, smallest, redraws, kept = phy._draw(cfg.k_r, cfg.k_t, seed, distinct.minor_size, keep=distinct.sizes)
        weights, _ = distinct.weights(h, kept)
        targets = [distinct.targets[z] for z in distinct.target_ids]
        return layout, np.abs(weights.T @ h.T).T.copy(), targets, (smallest, redraws)

    @pytest.mark.parametrize(
        "case", [(4, 2, 1, False), (6, 3, 2, False), (6, 2, 1, False), (3, 2, 1, True), (5, 3, 1, True), (6, 2, 1, True)],
        ids=lambda c: f"{c[0]}x{c[0]}_t{c[1]}_{c[2]}" + "_tiers" * c[3],
    )
    def test_worst_leak_and_suspects_equal_the_loop(self, case, monkeypatch):
        cfg, plans = _plans(*case)
        examined = []
        violations = phy._violations

        def spy(layout, mag, gmax, candidates, rel_tol):
            examined.append(candidates.tolist())
            return violations(layout, mag, gmax, candidates, rel_tol)

        monkeypatch.setattr(phy, "_violations", spy)
        for seed in (2, 9):
            layout, mag, targets, (smallest, redraws) = self._gains(cfg, plans, seed)
            # one silent off-target gain and one loud target gain, so both kinds of suspect occur
            planted = mag.copy()
            p = next(p for p, zf in enumerate(targets) if zf)
            planted[min(targets[p]), p] = planted[:, p].max() / 3
            planted[next(r for r in range(cfg.k_r) if r not in targets[p]), p + 1] = 0.0
            worst, _ = reference_reductions(mag, targets, 1e-9)
            (report,) = verify_plan_phy(cfg, plans, channel_seeds=[seed])
            assert report.worst_leak == worst > 0.0
            ratios = sorted({mag[sorted(zf), p].max() / mag[:, p].max() for p, zf in enumerate(targets) if zf})
            # the median ratio splits the precoders: those above it are suspect, those at or below are not
            for gains in (mag, planted):
                for rel_tol in (1e-300, ratios[len(ratios) // 2], 1e-9):
                    worst, suspect = reference_reductions(gains, targets, rel_tol)
                    examined.clear()
                    report = phy._check(seed, smallest, redraws, layout, gains, rel_tol)
                    assert report.worst_leak == worst
                    expected = [t for t, row in enumerate(layout.rows) if row in set(suspect)]
                    assert examined == ([expected] if expected else [])
                    assert 0 < len(suspect) < len(targets) or rel_tol != ratios[len(ratios) // 2]

    def test_planted_leak_on_one_channel_of_several_equals_the_single_calls(self, monkeypatch):
        # the weights come from the minor tables of the unperturbed draw, so seed 8's nulls leak
        cfg, plans = _plans(4, 2, 1, False)
        draw = phy._draw

        def planted(k_r, k_t, seed, size, keep):
            h, smallest, redraws, kept = draw(k_r, k_t, seed, size, keep)
            if seed == 8:
                h = h.copy()
                h[0, 0] *= 1.001
            return h, smallest, redraws, kept

        monkeypatch.setattr(phy, "_draw", planted)
        reports = verify_plan_phy(cfg, plans, channel_seeds=[3, 8, 5])
        assert [r.ok for r in reports] == [True, False, True]
        assert reports[1].worst_leak > 1e-6 > reports[0].worst_leak
        assert reports == [verify_plan_phy(cfg, plans, channel_seeds=[seed])[0] for seed in (3, 8, 5)]
