from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

import per_entry
from per_entry import ScheduledSubfile, block_of, entries
from cachenet.delivery import (
    Block,
    DeliveryPlan,
    MalformedPlanError,
    ReceiverLedger,
    Run,
    SubspaceLedger,
    _cyclic_blocks,
    _zf_offsets,
    account_block,
    account_plan,
    build_centralized_plan,
    build_decentralized_plan,
    check_plan_file,
    common_sdof,
    parse_plans,
    plan_sdof,
    serialize_plan,
    verify_completeness,
)
from cachenet.model import ConfigurationError, DemandVector, NetworkConfig, SubfileId, binomial, subsets
from cachenet.placement import place_centralized


def cfg44(m_r=1):
    return NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=m_r)


def cfg33(m_r=1, file_bits=None):
    return NetworkConfig(k_t=3, k_r=3, n_files=3, m_t=2, m_r=m_r, file_bits=file_bits)


def centralized_setup(cfg):
    demand = DemandVector.worst_case(cfg)
    return demand, build_centralized_plan(cfg, None, demand)


def corner_cfg(k_t, k_r, t_t, t_r):
    n = k_t * k_r
    return NetworkConfig(
        k_t=k_t, k_r=k_r, n_files=n, m_t=Fraction(t_t * n, k_t), m_r=Fraction(t_r * n, k_r)
    )


class TestCentralized4x4:
    def test_shape(self):
        _, plan = centralized_setup(cfg44())
        assert len(plan.blocks) == 3
        assert all(len(b) == 24 for b in plan.blocks)
        # 18 needed subfiles per receiver, six per block
        for j in range(4):
            for block in plan.blocks:
                assert sum(len(r.tx_sets) for r in block.runs if r.dest == j) == 6

    def test_first_block_grouping(self):
        # block 1: dest j gets the file it demanded, cached at j+1, zero-forced at j+2
        _, plan = centralized_setup(cfg44())
        lines = serialize_plan(plan).splitlines()
        first = [ln for ln in lines if ln.startswith("block=1 ")]
        assert len(first) == 24
        for dest, cached, zf in ((1, 2, 3), (2, 3, 4), (3, 4, 1), (4, 1, 2)):
            group = [ln for ln in first if ln.endswith(f"dest={dest}")]
            assert len(group) == 6
            assert all(f"file={dest}" in ln for ln in group)
            assert all(f"cachedRx={{{cached}}}" in ln for ln in group)
            assert all(f"zf={{{zf}}}" in ln for ln in group)
        tx_sets = {ln.split("tx=")[1].split()[0] for ln in first if ln.endswith("dest=1")}
        assert tx_sets == {"{1,2}", "{1,3}", "{1,4}", "{2,3}", "{2,4}", "{3,4}"}

    def test_ledger(self):
        cfg = cfg44()
        _, plan = centralized_setup(cfg)
        for ledger in account_plan(cfg, plan):
            assert ledger.uniform
            for r in ledger.receivers:
                assert (r.desired, r.aligned_dims) == (6, 1)
                assert r.dof == Fraction(6, 7)
            assert common_sdof([ledger]) == Fraction(24, 7)
        assert plan_sdof(cfg, plan) == Fraction(24, 7)

    def test_completeness(self):
        cfg = cfg44()
        demand, plan = centralized_setup(cfg)
        report = verify_completeness(cfg, [plan], "centralized", demand)
        assert report.complete and report.scheduled == 72

    def test_missing_block_detected(self):
        cfg = cfg44()
        demand, plan = centralized_setup(cfg)
        truncated = DeliveryPlan(blocks=plan.blocks[:2], mode=plan.mode)
        report = verify_completeness(cfg, [truncated], "centralized", demand)
        assert not report.complete
        assert len(report.missing) == 24
        for j in range(4):
            assert sum(1 for dest, _ in report.missing if dest == j) == 6

    def test_duplicate_block_detected(self):
        cfg = cfg44()
        demand, plan = centralized_setup(cfg)
        doubled = DeliveryPlan(blocks=plan.blocks + plan.blocks[:1], mode=plan.mode)
        report = verify_completeness(cfg, [doubled], "centralized", demand)
        assert len(report.duplicated) == 24 and not report.missing

    def test_shared_tx_sets_tuple_is_compared_per_label(self):
        # built runs share one tx_sets tuple, compared with the partition once: a stray label that
        # shares it is extraneous in full, and a label split over two runs is joined before comparing
        cfg = cfg44()
        demand, plan = centralized_setup(cfg)
        first, *rest = plan.blocks[0].runs
        stray = first._replace(file=(first.file + 1) % cfg.n_files)
        assert stray.tx_sets is rest[0].tx_sets
        report = verify_completeness(cfg, [replace_runs(plan, 0, (first, stray, *rest))], "centralized", demand)
        assert not report.missing and not report.duplicated and report.scheduled == 78
        assert report.extraneous == tuple((first.dest, SubfileId(stray.file, ts, stray.rx_set)) for ts in stray.tx_sets)
        halves = (first._replace(tx_sets=first.tx_sets[:2]), first._replace(tx_sets=first.tx_sets[2:]))
        report = verify_completeness(cfg, [replace_runs(plan, 0, (*halves, *rest))], "centralized", demand)
        assert report.complete and report.scheduled == 72


def replace_runs(plan: DeliveryPlan, b: int, runs) -> DeliveryPlan:
    """`plan` with the runs of block `b` replaced."""
    blocks = list(plan.blocks)
    blocks[b] = Block(blocks[b].position, tuple(runs))
    return DeliveryPlan(blocks=tuple(blocks), mode=plan.mode)


def test_plan_file_rules_check_a_shared_tx_sets_tuple_once_and_every_run_still():
    # a run whose tx_sets tuple an earlier run passed skips the tx-range and ZF-count checks for that
    # tuple, but its own indices are still checked, and ZF feasibility again for another target count
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    first, second, *rest = plan.blocks[0].runs
    assert first.tx_sets is second.tx_sets and len(first.zf_targets) == 1
    bad_zf = second._replace(zf_targets=frozenset({7}))
    with pytest.raises(ConfigurationError) as err:
        check_plan_file(cfg, [replace_runs(plan, 0, (first, bad_zf, *rest))], None, None)
    assert str(err.value) == f"block 1: zf index 8 outside 1..4 in {second._label(second.tx_sets[0])}"
    # two targets need three transmitters; the tuple holds pairs
    (target,) = second.zf_targets
    two = second._replace(zf_targets=frozenset({target, next(j for j in range(4) if j not in {target, second.dest} | second.rx_set)}))
    with pytest.raises(MalformedPlanError) as err:
        check_plan_file(cfg, [replace_runs(plan, 0, (first, two, *rest))], None, None)
    assert str(err.value) == f"block 1: {second._label(second.tx_sets[0])} zero-forced at 2 receiver(s) by 2 transmitter(s)"


def test_differing_block_sdofs_rejected():
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    crafted = DeliveryPlan(blocks=(plan.blocks[0], block_of(entries(plan.blocks[1])[:-1])), mode=plan.mode)
    message = r"blocks have differing sum DoF: \[Fraction\(23, 7\), Fraction\(24, 7\)\]"
    with pytest.raises(ConfigurationError, match=message):
        plan_sdof(cfg, crafted)
    with pytest.raises(ConfigurationError, match=message):
        common_sdof(account_plan(cfg, crafted))
    assert common_sdof(account_plan(cfg, plan)) == plan_sdof(cfg, plan) == Fraction(24, 7)
    assert common_sdof([]) == 0


def test_common_sdof_equal_ratios_from_different_pairs():
    # (desired, span) = (2, 4) and (1, 2) are one sum DoF; a differing ratio still names both values
    two_of_four = SubspaceLedger((ReceiverLedger(1, 0, 0, 0, 3), ReceiverLedger(1, 0, 0, 0, 3)))
    one_of_two = SubspaceLedger((ReceiverLedger(1, 0, 0, 0, 1),))
    assert (two_of_four.dims, one_of_two.dims) == ((2, 4), (1, 2))
    assert common_sdof([two_of_four, one_of_two, two_of_four]) == Fraction(1, 2)
    assert common_sdof([two_of_four]) == common_sdof([one_of_two]) == Fraction(1, 2)
    one_of_three = SubspaceLedger((ReceiverLedger(1, 0, 0, 0, 2),))
    message = "blocks have differing sum DoF: [Fraction(1, 3), Fraction(1, 2)]"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        common_sdof([two_of_four, one_of_three, one_of_two])
    assert common_sdof([SubspaceLedger(())]) == 0


@pytest.mark.parametrize("k_r", range(2, 11))
def test_cyclic_blocks_match_the_direct_rotation_and_share_equal_sets(k_r):
    # every tier and ZF count: the same sets in the same order as rotating the offsets receiver by receiver;
    # with one dict of sets for all of them, equal sets are one object across tiers too
    sets: dict[int, tuple[frozenset[int], ...]] = {}
    first: dict[frozenset[int], frozenset[int]] = {}
    for n_cached in range(k_r):
        for n_zf in range(k_r - n_cached):
            direct = []
            for offset_base in subsets(k_r - 1, n_cached):
                offsets = tuple(s + 1 for s in offset_base)
                zf_offsets = _zf_offsets(k_r, offsets, n_zf)
                direct.append([
                    (frozenset((j + o) % k_r for o in offsets), frozenset((j + z) % k_r for z in zf_offsets))
                    for j in range(k_r)
                ])
            blocks = list(_cyclic_blocks(k_r, n_cached, n_zf, sets))
            assert [list(zip(cached, zf)) for cached, zf in blocks] == direct
            assert all(first.setdefault(s, s) is s for block in blocks for column in block for s in column)


def test_everything_cached_gives_empty_plan():
    cfg = cfg44(m_r=4)
    demand, plan = centralized_setup(cfg)
    assert plan.blocks == ()
    assert verify_completeness(cfg, [plan], "centralized", demand).complete


def test_non_integral_rejected():
    cfg = NetworkConfig(k_t=3, k_r=3, n_files=4, m_t=2, m_r=1)
    with pytest.raises(ConfigurationError, match="use memory-sharing between integral corners"):
        build_centralized_plan(cfg, None, DemandVector.worst_case(cfg))
    with pytest.raises(ConfigurationError, match="use memory-sharing between integral corners"):
        verify_completeness(cfg, [], "centralized", DemandVector.worst_case(cfg))
    with pytest.raises(ConfigurationError, match="decentralized placement needs integral t_T, got 3/2"):
        verify_completeness(cfg, [], "decentralized", DemandVector.worst_case(cfg))


def test_completeness_takes_a_mode_or_a_centralized_placement():
    cfg = cfg44()
    demand, plan = centralized_setup(cfg)
    with pytest.raises(ConfigurationError, match="unknown placement mode 'centralised'"):
        verify_completeness(cfg, [plan], "centralised", demand)
    # perfbench/workloads.py still passes a CentralizedPlacement positionally
    report = verify_completeness(cfg, [plan], place_centralized(cfg), demand)
    assert report == verify_completeness(cfg, [plan], "centralized", demand) and report.complete


class TestLedgerGrid:
    """Rotation schedule meets the closed-form dimension counts on the whole corner grid."""

    @pytest.mark.parametrize("k_t,k_r", list(itertools.product((2, 3, 4), repeat=2)))
    def test_counts_and_conservation(self, k_t, k_r):
        for t_t in range(1, k_t + 1):
            for t_r in range(0, k_r + 1):
                cfg = corner_cfg(k_t, k_r, t_t, t_r)
                demand, plan = centralized_setup(cfg)
                expected_blocks = binomial(k_r - 1, t_r) if t_r < k_r else 0
                assert len(plan.blocks) == expected_blocks
                c = binomial(k_t, t_t)
                expected_dof = Fraction(c, c + max(k_r - t_t - t_r, 0))
                for block, ledger in zip(plan.blocks, account_plan(cfg, plan)):
                    for r in ledger.receivers:
                        assert r.desired + r.zf_nulled + r.ic_cancelled + r.interfering == len(block)
                        assert r.dof == expected_dof
                        assert r.aligned_dims <= r.interfering
                report = verify_completeness(cfg, [plan], "centralized", demand)
                assert report.complete, (k_t, k_r, t_t, t_r, report.summary())


def test_no_self_targeting():
    for cfg in (cfg44(), cfg44(m_r=2), corner_cfg(4, 3, 3, 1)):
        _, plan = centralized_setup(cfg)
        for e in entries(plan):
            assert e.dest not in e.subfile.rx_set
            assert not e.zf_targets & ({e.dest} | e.subfile.rx_set)


def test_demand_permutation_leaves_ledgers_unchanged():
    cfg = cfg44()
    base = build_centralized_plan(cfg, None, DemandVector((0, 1, 2, 3)))
    permuted = build_centralized_plan(cfg, None, DemandVector((2, 0, 3, 1)))
    assert account_plan(cfg, base) == account_plan(cfg, permuted)
    # structure identical, only file labels moved
    for eb, ep in zip(entries(base), entries(permuted)):
        assert (eb.dest, eb.subfile.tx_set, eb.subfile.rx_set, eb.zf_targets) == (
            ep.dest,
            ep.subfile.tx_set,
            ep.subfile.rx_set,
            ep.zf_targets,
        )


def test_duplicate_demands_scheduled_independently():
    cfg = NetworkConfig(k_t=2, k_r=3, n_files=2, m_t=1, m_r=Fraction(2, 3))
    demand = DemandVector((0, 1, 0))
    plan = build_centralized_plan(cfg, None, demand)
    report = verify_completeness(cfg, [plan], "centralized", demand)
    assert report.complete
    assert {e.dest for e in entries(plan)} == {0, 1, 2}


class TestDecentralizedTiers:
    def test_tier_sdofs_3x3(self):
        cfg = cfg33(file_bits=999)
        demand = DemandVector.worst_case(cfg)
        expected = {0: Fraction(9, 4), 1: Fraction(3), 2: Fraction(3)}
        plans = build_decentralized_plan(cfg, demand)
        for t, sdof in expected.items():
            assert plan_sdof(cfg, plans[t]) == sdof

    def test_tier0_per_user(self):
        cfg = cfg33()
        plan = build_decentralized_plan(cfg, DemandVector.worst_case(cfg))[0]
        ledger = account_block(cfg, plan.blocks[0])
        assert all(r.dof == Fraction(3, 4) for r in ledger.receivers)

    def test_tier1_no_alignment_and_ic_active(self):
        cfg = cfg33()
        plan = build_decentralized_plan(cfg, DemandVector.worst_case(cfg))[1]
        for ledger in account_plan(cfg, plan):
            for r in ledger.receivers:
                assert r.aligned_dims == 0
                assert r.ic_cancelled > 0

    def test_top_tier_is_broadcast(self):
        cfg = cfg33()
        plan = build_decentralized_plan(cfg, DemandVector.worst_case(cfg))[2]
        assert all(e.zf_targets == frozenset() for e in entries(plan))
        for ledger in account_plan(cfg, plan):
            assert all(r.aligned_dims == 0 for r in ledger.receivers)

    def test_tier1_first_block_matches_worked_grouping(self):
        # dest 1 cached {2} zf {3}; dest 2 cached {3} zf {1}; dest 3 cached {1} zf {2}
        cfg = cfg33()
        plan = build_decentralized_plan(cfg, DemandVector.worst_case(cfg))[1]
        got = {(r.dest, r.rx_set, r.zf_targets) for r in plan.blocks[0].runs}
        assert got == {
            (0, frozenset({1}), frozenset({2})),
            (1, frozenset({2}), frozenset({0})),
            (2, frozenset({0}), frozenset({1})),
        }

    def test_full_coverage(self):
        cfg = cfg33(file_bits=300)
        demand = DemandVector.worst_case(cfg)
        plans = build_decentralized_plan(cfg, demand)
        assert len(plans) == 3
        report = verify_completeness(cfg, plans, "decentralized", demand)
        assert report.complete
        # 3 partitions x (4 rx-subsets excluding dest) per receiver
        assert report.scheduled == 3 * 3 * 4


class TestAccountBlockValidation:
    def test_rejects_delivery_to_caching_receiver(self):
        cfg = cfg33()
        bad = ScheduledSubfile(
            subfile=SubfileId(0, frozenset({0, 1}), frozenset({0})), dest=0, zf_targets=frozenset(), block=0
        )
        with pytest.raises(ConfigurationError):
            account_block(cfg, block_of([bad]))

    def test_rejects_zf_overlap(self):
        cfg = cfg33()
        bad = ScheduledSubfile(
            subfile=SubfileId(0, frozenset({0, 1}), frozenset({1})), dest=0, zf_targets=frozenset({1}), block=0
        )
        with pytest.raises(ConfigurationError):
            account_block(cfg, block_of([bad]))

    @pytest.mark.parametrize(
        "rx,zf,message",
        [
            ({0}, set(), "scheduled to a receiver that cached it"),
            ({0}, {1}, "scheduled to a receiver that cached it"),
            (set(), {0}, "zero-forced at its destination or at a caching receiver"),
            ({1}, {1, 2}, "zero-forced at its destination or at a caching receiver"),
        ],
    )
    def test_each_bad_label_kind_raises_the_entry_message(self, rx, zf, message):
        good = ScheduledSubfile(SubfileId(1, frozenset({0, 1}), frozenset({2})), 1, frozenset({0}), 0)
        bad = ScheduledSubfile(SubfileId(0, frozenset({0, 1}), frozenset(rx)), 0, frozenset(zf), 0)
        with pytest.raises(ConfigurationError, match=f"^W1\\[tx=12 rx=[-0-9]+\\] {message}$"):
            account_block(cfg33(), block_of([good, bad]))


def test_receiver_ledger_is_a_plain_tuple():
    ledger = ReceiverLedger(desired=6, zf_nulled=3, ic_cancelled=2, interfering=4, aligned_dims=1)
    assert ledger == (6, 3, 2, 4, 1) and ReceiverLedger(*ledger) == ledger
    assert (ledger.total_dims, ledger.dof) == (7, Fraction(6, 7))
    assert ReceiverLedger(0, 0, 0, 0, 0).dof == 0


class TestPerLabelEquivalence:
    """account_block counts transmissions per label; a per-entry classifier agrees."""

    @pytest.mark.parametrize("k_t,k_r", list(itertools.product(range(1, 6), repeat=2)))
    def test_rotation_shuffled_and_parsed_blocks(self, k_t, k_r):
        rng = random.Random(f"{k_t}x{k_r}")
        for t_t in range(1, k_t + 1):
            for t_r in range(k_r):
                cfg = corner_cfg(k_t, k_r, t_t, t_r)
                demand = DemandVector.worst_case(cfg)
                plans = [centralized_setup(cfg)[1]]
                if t_r == 0:  # the tier plans do not depend on t_R
                    plans += build_decentralized_plan(cfg, demand)
                for plan in plans:
                    expected = [per_entry.account_block(cfg, entries(block)) for block in plan.blocks]
                    assert account_plan(cfg, plan) == expected
                    (parsed,) = parse_plans(serialize_plan(plan))
                    assert account_plan(cfg, parsed) == expected
                    for block, ledger in zip(plan.blocks, expected):
                        shuffled = list(entries(block))
                        rng.shuffle(shuffled)
                        assert account_block(cfg, block_of(shuffled)) == ledger

    def test_crafted_non_uniform_block(self):
        cfg = cfg44()

        def entry(dest, tx, rx, zf, file=0):
            return ScheduledSubfile(SubfileId(file, frozenset(tx), frozenset(rx)), dest, frozenset(zf), 0)

        block = (
            entry(0, {0, 1}, {1}, {2}),
            entry(1, {0, 1}, set(), set(), file=1),
            entry(0, {0, 2}, {1}, {2}),
            entry(0, {1, 2}, {1}, {3}),
            entry(2, {2, 3}, {0, 3}, {1}),
            entry(1, {2, 3}, set(), set(), file=2),
            entry(3, {0, 1}, set(), {0, 1}),
            entry(0, {0, 3}, {1}, {2}),
        )
        ledger = account_block(cfg, block_of(block))
        assert ledger == per_entry.account_block(cfg, block)
        assert not ledger.uniform
        # at rx 4 (1-based) two labels interfere: dest=1 cachedRx={2} zf={3} with
        # three entries and dest=2 cachedRx={} with two: 5 transmissions, 2 dimensions
        assert ledger.receivers[3] == ReceiverLedger(
            desired=1, zf_nulled=1, ic_cancelled=1, interfering=5, aligned_dims=2
        )

    def test_first_bad_entry_is_named(self):
        cfg = cfg44()
        _, plan = centralized_setup(cfg)
        good = list(entries(plan.blocks[0]))
        e = good[5]
        # `first` and `second` share one bad label (destination among the cache
        # holders); `third` is bad in another way and sits between them
        bad_rx = e.subfile.rx_set | {e.dest}

        def bad(tx):
            return ScheduledSubfile(SubfileId(e.subfile.file, frozenset(tx), bad_rx), e.dest, frozenset(), 0)

        first, second = bad({0, 3}), bad({1, 2})
        third = ScheduledSubfile(e.subfile, e.dest, frozenset({e.dest}), 0)
        block = tuple(good[:3] + [first] + good[3:7] + [third, second] + good[7:])
        with pytest.raises(ConfigurationError) as grouped:
            account_block(cfg, block_of(block))
        with pytest.raises(ConfigurationError) as reference:
            per_entry.account_block(cfg, block)
        assert str(grouped.value) == str(reference.value)
        assert first.subfile.label() in str(grouped.value)


def test_literal_worked_block_accounts_with_degraded_receiver():
    """The widely-quoted 4x4 first block has one off-pattern ZF target; it stays a
    valid (complete, well-formed) block but its ledger is non-uniform."""
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    literal = []
    for e in entries(plan.blocks[0]):
        if e.dest == 3 and e.subfile.tx_set == frozenset({0, 3}):
            e = ScheduledSubfile(e.subfile, e.dest, frozenset({2}), e.block)
        literal.append(e)
    ledger = account_block(cfg, block_of(literal))
    assert not ledger.uniform
    assert ledger.receivers[1].dof == Fraction(3, 4)  # extra alignment group at rx 2
    assert ledger.receivers[0].dof == Fraction(6, 7)
    assert ledger.receivers[2].dof == Fraction(6, 7)


def test_serialize_round_trip():
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    assert parse_plans(serialize_plan(plan)) == [plan]
    cfg3 = cfg33(file_bits=300)
    for tier in build_decentralized_plan(cfg3, DemandVector.worst_case(cfg3)):
        assert parse_plans(serialize_plan(tier)) == [tier]


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_plans("block=1 file=1 oops\n")


@pytest.mark.parametrize("k", [3, 4])
def test_parse_plans_splits_concatenated_tiers(k):
    cfg = NetworkConfig(k_t=k, k_r=k, n_files=k, m_t=2, m_r=1, file_bits=300)
    tiers = build_decentralized_plan(cfg, DemandVector.worst_case(cfg))
    text = "".join(serialize_plan(tier) for tier in tiers)
    assert parse_plans(text) == tiers


def test_parse_plans_shares_equal_tx_set_tuples():
    # a parsed plan, like a built one, holds one tuple per distinct tx-set sequence
    cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1, file_bits=300)
    (tier,) = parse_plans(serialize_plan(build_decentralized_plan(cfg, DemandVector.worst_case(cfg))[1]))
    runs = [r for block in tier.blocks for r in block.runs]
    first = {}
    for r in runs:
        assert first.setdefault(r.tx_sets, r.tx_sets) is r.tx_sets
    assert len(first) < len(runs)


def test_parse_plans_single_plan():
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    assert parse_plans(serialize_plan(plan)) == [plan]
    assert parse_plans("") == [DeliveryPlan(blocks=(), mode=None)]


def test_parse_plans_headers_are_comments_starting_with_mode():
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    header, *entries = serialize_plan(plan).splitlines(True)
    noted = "".join([header, "# was mode=decentralized-tier(1), see mode=x\n", *entries])
    assert parse_plans(noted) == [plan]
    assert parse_plans("#mode=centralized\n" + "".join(entries)) == [plan]
    assert [p.mode for p in parse_plans("# mode=a\n#  mode=b extra\n")] == ["a", "b"]


def test_parse_plans_accepts_padding_crlf_comments_and_any_block_order():
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    header, *lines = serialize_plan(plan).splitlines()
    assert parse_plans("\r\n".join([f" {header}", *(f" \t{ln}  " for ln in lines)]) + "\r\n") == [plan]
    # the first run has 6 tx sets, so the comment splits it in the middle
    assert parse_plans("\n".join([header, *lines[:3], "  # a note", *lines[3:]])) == [plan]
    by_block = [[ln for ln in lines if ln.startswith(f"block={b} ")] for b in (1, 2, 3)]
    assert parse_plans("\n".join([header, *by_block[2], *by_block[0], *by_block[1]])) == [plan]
    interleaved = [ln for row in itertools.zip_longest(*by_block) for ln in row if ln]
    assert interleaved != lines and parse_plans("\n".join([header, *interleaved])) == [plan]


def test_parse_plans_keeps_a_label_shared_across_blocks_apart():
    # one label in blocks 1 and 2: a run per block, and block 1's run continues after block 2's line
    text = (
        "# mode=centralized\n"
        "block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=1\n"
        "block=2 file=1 tx={1,3} cachedRx={2} zf={3} dest=1\n"
        "block=1 file=1 tx={1,4} cachedRx={2} zf={3} dest=1\n"
        "block=2 file=1 tx={2,3} cachedRx={2} zf={4} dest=1\n"
    )
    rx, zf3, zf4 = frozenset({1}), frozenset({2}), frozenset({3})
    assert parse_plans(text) == [DeliveryPlan(blocks=(
        Block(0, (Run(0, 0, rx, zf3, (frozenset({0, 1}), frozenset({0, 3}))),)),
        Block(1, (Run(0, 0, rx, zf3, (frozenset({0, 2}),)), Run(0, 0, rx, zf4, (frozenset({1, 2}),)))),
    ), mode="centralized")]


_GOOD = "block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=1"


@pytest.mark.parametrize(
    "text,message",
    [
        (
            f"# mode=centralized\n{_GOOD}\n  block=1 file=1  tx={{1,3}} cachedRx={{2}} zf={{3}} dest=1 \n",
            "line 3: malformed plan entry 'block=1 file=1  tx={1,3} cachedRx={2} zf={3} dest=1'",
        ),
        (
            f"\tblock=1 file=1 tx={{1,2}} cachedRx={{2}} zf={{3}} dest=1\tx\n",
            "line 1: malformed plan entry 'block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=1\\tx'",
        ),
        (
            f"# mode=centralized\r\n\r\n{_GOOD}\r\nblock=0 file=1 tx={{1,2}} cachedRx={{2}} zf={{3}} dest=1\r\n",
            "line 4: block index 0 is below 1",
        ),
        # the block index is checked before the index sets, and the tx set before cachedRx and zf
        (
            f"# mode=centralized\n{_GOOD}\nblock=0 file=1 tx={{0,2}} cachedRx={{5}} zf={{3}} dest=1\n",
            "line 3: block index 0 is below 1",
        ),
        (
            f"# mode=centralized\n{_GOOD}\n# note\nblock=2 file=1 tx={{0,2}} cachedRx={{5}} zf={{3}} dest=1\n",
            "line 4: index set '{0,2}' has an index below 1",
        ),
        (
            f"{_GOOD}\nblock=1 file=1 tx={{1,2}} cachedRx={{0}} zf={{0}} dest=1\n",
            "line 2: index set '{0}' has an index below 1",
        ),
        (
            f"{_GOOD}\nblock=1 file=1 tx={{1,2}} cachedRx={{2}} zf={{0,1}} dest=1\n",
            "line 2: index set '{0,1}' has an index below 1",
        ),
        # in a file with headers, an entry before the first one would join the first header's plan
        (
            f"# note\n\n{_GOOD}\n# mode=centralized\n{_GOOD}\n",
            "line 3: plan entry before the first '# mode=' header",
        ),
    ],
    ids=["padded-malformed", "trailing-text", "crlf-block0", "block0-first", "tx-set", "cachedRx", "zf", "headless"],
)
def test_parse_plans_messages_and_line_numbers(text, message):
    with pytest.raises(ValueError) as exc:
        parse_plans(text)
    assert str(exc.value) == message


def test_block_entries_must_share_one_block_index():
    # every record of a block carries the block's position, also when it is a plan's only block
    cfg = cfg44()
    _, plan = centralized_setup(cfg)
    moved = DeliveryPlan(blocks=plan.blocks[1:2], mode=plan.mode)
    assert {e.block for e in entries(moved)} == {1} and len(entries(moved)) == len(plan.blocks[1])
    text = serialize_plan(moved)
    assert text.splitlines()[1].startswith("block=2 ") and parse_plans(text) == [moved]
