"""Property tests of the scheme's invariants over integral corners with K_T, K_R <= 6.

Corners follow the benchmark grid's convention N = K_R, M_T = t_T K_R / K_T,
M_R = t_R, with t_T >= 1 and t_R <= K_R (t_R = K_R caches everything, so
its plan is empty).  Hypothesis runs derandomized, so every run of the
suite draws the same corners.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import per_entry
from cachenet.delivery import (
    DeliveryPlan,
    Run,
    account_plan,
    build_centralized_plan,
    build_decentralized_plan,
    parse_plans,
    plan_sdof,
    serialize_plan,
    verify_completeness,
)
from cachenet.metrics import sdof_achievable
from cachenet.model import DemandVector, NetworkConfig, SubfileId, fmt_index_set, subsets
from cachenet.phy import verify_plan_phy
from cachenet.placement import place_centralized, place_decentralized, subset_profile, tx_partition

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)
DEC_FILE_BITS = 60


@st.composite
def corners(draw) -> NetworkConfig:
    k_t = draw(st.integers(1, 6))
    k_r = draw(st.integers(1, 6))
    t_t = draw(st.integers(1, k_t))
    t_r = draw(st.integers(0, k_r))
    return NetworkConfig(
        k_t=k_t, k_r=k_r, n_files=k_r, m_t=Fraction(t_t * k_r, k_t), m_r=t_r, file_bits=DEC_FILE_BITS
    )


def centralized(cfg: NetworkConfig):
    demand = DemandVector.worst_case(cfg)
    return "centralized", demand, build_centralized_plan(cfg, None, demand)


def decentralized(cfg: NetworkConfig):
    demand = DemandVector.worst_case(cfg)
    return "decentralized", demand, build_decentralized_plan(cfg, demand)


@PROPERTY
@given(corners())
def test_plans_are_complete(cfg):
    for mode, demand, plans in (centralized(cfg), decentralized(cfg)):
        report = verify_completeness(cfg, plans if mode == "decentralized" else [plans], mode, demand)
        assert report.complete, report.summary()


def damage(cfg: NetworkConfig, entries: list[per_entry.ScheduledSubfile], rnd: random.Random, kind: str) -> None:
    """Apply one kind of damage to a random entry, in place."""
    i = rnd.randrange(len(entries))
    e = entries[i]
    sub = e.subfile
    if kind == "drop":
        del entries[i]
    elif kind == "duplicate":
        entries.insert(rnd.randrange(len(entries) + 1), e)
    elif kind == "refile":  # another file: extraneous, and its own subfile goes missing
        entries[i] = e._replace(subfile=sub._replace(file=(sub.file + 1) % cfg.n_files))
    elif kind == "recache":  # another cache-holder set, possibly of another tier or holding the destination
        entries[i] = e._replace(subfile=sub._replace(rx_set=sub.rx_set ^ {rnd.randrange(cfg.k_r)}))
    else:  # a tx set of the wrong size
        entries[i] = e._replace(subfile=sub._replace(tx_set=sub.tx_set ^ {rnd.randrange(cfg.k_t)}))


@PROPERTY
@given(corners(), st.booleans(), st.randoms(use_true_random=False), st.lists(
    st.sampled_from(["drop", "duplicate", "refile", "recache", "resize"]), max_size=4
))
def test_completeness_matches_per_entry_reference(cfg, decentral, rnd, damages):
    # built, shuffled and damaged plans all give the reference's counts, listings and listing order
    mode, demand, plans = decentralized(cfg) if decentral else centralized(cfg)
    plans = plans if decentral else [plans]
    assert verify_completeness(cfg, plans, mode, demand) == per_entry.verify_completeness(cfg, plans, mode, demand)
    entries = [e for p in plans for e in per_entry.entries(p)]
    rnd.shuffle(entries)
    for kind in damages:
        if entries:
            damage(cfg, entries, rnd, kind)
    # shuffled entries keep their block positions; each position becomes one block
    by_block: dict[int, list[per_entry.ScheduledSubfile]] = {}
    for e in entries:
        by_block.setdefault(e.block, []).append(e)
    damaged = [DeliveryPlan(blocks=tuple(map(per_entry.block_of, by_block.values())), mode="damaged")]
    report = verify_completeness(cfg, damaged, mode, demand)
    assert report == per_entry.verify_completeness(cfg, damaged, mode, demand)
    assert report.scheduled == len(entries)


@PROPERTY
@given(corners())
def test_ledgers_are_uniform(cfg):
    plans = [centralized(cfg)[2], *decentralized(cfg)[2]]
    assert all(ledger.uniform for plan in plans for ledger in account_plan(cfg, plan))


@PROPERTY
@given(corners())
def test_ledger_sdof_is_the_closed_form(cfg):
    if cfg.t_r < cfg.k_r:  # with everything cached there is no plan to measure
        assert plan_sdof(cfg, centralized(cfg)[2]) == sdof_achievable(cfg)


@PROPERTY
@given(corners())
def test_serialize_parse_round_trip(cfg):
    plan = centralized(cfg)[2]
    (parsed,) = parse_plans(serialize_plan(plan))
    assert parsed == plan
    tiers = decentralized(cfg)[2]
    parsed_tiers = parse_plans("".join(serialize_plan(tier) for tier in tiers))
    assert parsed_tiers == tiers
    for p in [parsed, *parsed_tiers]:
        for e in per_entry.entries(p):
            assert type(e) is per_entry.ScheduledSubfile and type(e.subfile) is SubfileId


def plan_text_mutants(text: str, k_t: int, rnd: random.Random) -> dict[str, str]:
    """Edits of plan text, one per kind, each at places drawn from `rnd`.

    Padding and CRLF touch every line; a note or a blank line goes inside a run, a header before
    any entry but the first, and a respelt, an unknown and a malformed tx text onto a line that would continue a run.
    """
    lines = text.splitlines()
    pad = lambda: rnd.choice(("", " ", "\t", " \t", "\t "))
    mutants = {"padded": "\n".join(pad() + ln + pad() for ln in lines), "crlf": "\r\n".join(lines) + "\r\n"}
    entries = [i for i, ln in enumerate(lines) if ln.startswith("block=")]
    if not entries:
        return mutants
    # a line continues a run when it differs from the line before only in its tx text
    untx = [re.sub(r" tx=\S+ ", " ", ln) for ln in lines]
    starts = [i for i in entries if untx[i - 1] != untx[i]]
    inside = [i for i in entries if untx[i - 1] == untx[i]] or entries

    def edited(i: int, *replacement: str) -> str:
        return "\n".join(lines[:i] + list(replacement) + lines[i + 1 :]) + "\n"

    i = rnd.choice(inside)
    mutants["notes"] = edited(i, rnd.choice(("", " \t", "# a note", "  # mode is set above")), lines[i])
    if len(entries) > 1:
        h = rnd.choice(entries[1:])
        mutants["header"] = edited(h, "# mode=split", lines[h])
    mutants["unseen-tx"] = edited(i, lines[i].replace(" tx={", " tx={0"))
    mutants["unknown-tx"] = edited(i, re.sub(r" tx=\S+ ", f" tx={{{k_t + 1}}} ", lines[i]))
    j = rnd.choice([s + 2 for s in starts if s + 2 in inside and untx[s + 2] == untx[s]] or entries)
    mutants["malformed-tx"] = edited(j, re.sub(r" tx=\S+ ", " tx={1,,2} ", lines[j]))
    return mutants


def parsed(parse, text: str):
    """The plans `parse` reads from `text`, or its error message."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(corners(), st.randoms(use_true_random=False))
def test_parse_plans_matches_the_per_line_reference(cfg, rnd):
    # built plans and edits of their text: the same plans, or the same error at the same line
    plan, tiers = centralized(cfg)[2], decentralized(cfg)[2]
    for text, plans in ((serialize_plan(plan), [plan]), ("".join(map(serialize_plan, tiers)), tiers)):
        assert parse_plans(text) == per_entry.parse_plans(text) == plans
        for kind, mutant in plan_text_mutants(text, cfg.k_t, rnd).items():
            got = parsed(parse_plans, mutant)
            assert got == parsed(per_entry.parse_plans, mutant), kind
            assert (kind == "malformed-tx") == isinstance(got, str), (kind, got)


@PROPERTY
@given(corners())
def test_run_blocks_match_per_entry_reference(cfg):
    demand = DemandVector.worst_case(cfg)
    tiers = decentralized(cfg)[2]
    for plan, n_cached in [(centralized(cfg)[2], int(cfg.t_r)), *zip(tiers, range(cfg.k_r))]:
        reference = per_entry.rotation_blocks(cfg, demand, n_cached)
        # runs expand to exactly the reference entries, and len() agrees without expanding
        assert [len(block) for block in plan.blocks] == [len(block) for block in reference]
        assert tuple(map(per_entry.entries, plan.blocks)) == reference
        assert per_entry.entries(plan) == tuple(e for block in reference for e in block)
        # encoding the reference entries gives back the same positions and runs
        assert DeliveryPlan(blocks=tuple(map(per_entry.block_of, reference)), mode=plan.mode) == plan
        assert all(type(r) is Run for block in plan.blocks for r in block.runs)


@PROPERTY
@given(corners())
def test_exported_cache_listings_match_eager_reference(cfg):
    tx_cache = {i: set() for i in range(cfg.k_t)}
    rx_cache = {j: set() for j in range(cfg.k_r)}
    tx_sets = subsets(cfg.k_t, int(cfg.t_t))
    rx_sets = subsets(cfg.k_r, int(cfg.t_r))
    for f in range(cfg.n_files):
        for ts in tx_sets:
            for rs in rx_sets:
                sub = SubfileId(f, frozenset(ts), frozenset(rs))
                for i in ts:
                    tx_cache[i].add(sub)
                for j in rs:
                    rx_cache[j].add(sub)
    exported = per_entry.exported_caches(place_centralized(cfg))
    assert exported == ({i: frozenset(v) for i, v in tx_cache.items()}, {j: frozenset(v) for j, v in rx_cache.items()})


def integral_grid():
    """Every corner the `corners` strategy can draw: K_T, K_R <= 6, 1 <= t_T <= K_T, 0 <= t_R <= K_R."""
    for k_t, k_r in itertools.product(range(1, 7), repeat=2):
        for t_t, t_r in itertools.product(range(1, k_t + 1), range(k_r + 1)):
            yield NetworkConfig(
                k_t=k_t, k_r=k_r, n_files=k_r, m_t=Fraction(t_t * k_r, k_t), m_r=t_r, file_bits=DEC_FILE_BITS
            )


def test_every_consumer_uses_the_one_transmitter_partition():
    # plans, the completeness check and both placements split files by tx_partition, in its order
    for cfg in integral_grid():
        t_t = int(cfg.t_t)
        partition = tx_partition(cfg)
        assert partition == tuple(frozenset(c) for c in itertools.combinations(range(cfg.k_t), t_t))
        demand = DemandVector.worst_case(cfg)
        for mode, plans in (("centralized", [centralized(cfg)[2]]), ("decentralized", decentralized(cfg)[2])):
            assert all(r.tx_sets == partition for plan in plans for _, r in plan.runs()), (cfg, mode)
            # with nothing scheduled, each needed label misses exactly the partition's sets
            missing: dict = {}
            for dest, sub in verify_completeness(cfg, [], mode, demand).missing:
                missing.setdefault((dest, sub.file, sub.rx_set), []).append(sub.tx_set)
            assert all(sorted(map(sorted, v)) == [sorted(ts) for ts in partition] for v in missing.values())
        listed = {sub.tx_set for subs in per_entry.exported_caches(place_centralized(cfg))[0].values() for sub in subs}
        assert listed == set(partition)
        placement = place_decentralized(cfg, seed=1)
        psize = placement.partition_size
        export = [ln for ln in placement.export_text().splitlines() if ln.startswith("tx-partition")]
        assert export == [
            f"tx-partition {fmt_index_set(ts)}: bits {p * psize}-{(p + 1) * psize - 1}" for p, ts in enumerate(partition)
        ]
        bits = Counter()
        for (ts, _), n in subset_profile(placement, 0).items():
            bits[ts] += n
        assert bits == Counter(
            {ts: min((p + 1) * psize, DEC_FILE_BITS) - p * psize for p, ts in enumerate(partition) if p * psize < DEC_FILE_BITS}
        )


def split_runs(plans: list[DeliveryPlan], rnd: random.Random) -> list[DeliveryPlan]:
    """The plans with each block's entries in a random order, so a label spreads over several runs of a block."""
    return [
        DeliveryPlan(
            blocks=tuple(per_entry.block_of(rnd.sample(per_entry.entries(b), len(b))) for b in p.blocks if len(b)),
            mode=p.mode,
        )
        for p in plans
    ]


def test_phy_counts_equal_the_ledger_sums():
    # phy classifies receivers with its own copy of account_block's rule; the two must count alike,
    # also where one label of a block spans several runs
    plan_sets, rnd = 0, random.Random(5)
    for cfg in integral_grid():
        if min(cfg.k_t, cfg.k_r) < 2:
            continue
        sets = [[centralized(cfg)[2]]] + ([decentralized(cfg)[2]] if cfg.t_r == 0 else [])
        for plans in (*sets, *(split_runs(s, rnd) for s in sets)):
            receivers = [rx for plan in plans for ledger in account_plan(cfg, plan) for rx in ledger.receivers]
            for report in verify_plan_phy(cfg, plans, channel_seeds=[0, 1]):
                assert report.ic_flagged == sum(rx.ic_cancelled for rx in receivers), (cfg, len(plans))
                assert report.alignment_groups == sum(rx.aligned_dims for rx in receivers), (cfg, len(plans))
            plan_sets += 1
    assert plan_sets == 2 * 600
