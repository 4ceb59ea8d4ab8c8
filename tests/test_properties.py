"""Property tests of the scheme's invariants over integral corners with K_T, K_R <= 6.

Corners follow the benchmark grid's convention N = K_R, M_T = t_T K_R / K_T,
M_R = t_R, with t_T >= 1 and t_R <= K_R (t_R = K_R caches everything, so
its plan is empty).  Hypothesis runs derandomized, so every run of the
suite draws the same corners.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import per_entry
from cachenet.delivery import (
    DeliveryPlan,
    Run,
    ScheduledSubfile,
    account_plan,
    build_centralized_plan,
    build_decentralized_plan,
    parse_plan,
    parse_plans,
    plan_sdof,
    serialize_plan,
    verify_completeness,
)
from cachenet.metrics import sdof_achievable
from cachenet.model import DemandVector, NetworkConfig, SubfileId, subsets
from cachenet.placement import place_centralized, place_decentralized

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
    placement = place_centralized(cfg)
    demand = DemandVector.worst_case(cfg)
    return placement, demand, build_centralized_plan(cfg, placement, demand)


def decentralized(cfg: NetworkConfig):
    placement = place_decentralized(cfg, seed=1)
    demand = DemandVector.worst_case(cfg)
    return placement, demand, build_decentralized_plan(cfg, placement, demand)


@PROPERTY
@given(corners())
def test_plans_are_complete(cfg):
    for placement, demand, plans in (centralized(cfg), decentralized(cfg)):
        report = verify_completeness(cfg, plans, placement, demand)
        assert report.complete, report.summary()


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
    parsed = parse_plan(serialize_plan(plan))
    assert parsed == plan
    tiers = decentralized(cfg)[2]
    parsed_tiers = parse_plans("".join(serialize_plan(tier) for tier in tiers))
    assert parsed_tiers == tiers
    for p in [parsed, *parsed_tiers]:
        for e in p.entries():
            assert type(e) is ScheduledSubfile and type(e.subfile) is SubfileId


@PROPERTY
@given(corners())
def test_run_blocks_match_per_entry_reference(cfg):
    demand = DemandVector.worst_case(cfg)
    tiers = decentralized(cfg)[2]
    for plan, n_cached in [(centralized(cfg)[2], int(cfg.t_r)), *zip(tiers, range(cfg.k_r))]:
        reference = per_entry.rotation_blocks(cfg, demand, n_cached)
        # runs expand to exactly the reference entries, and len() agrees without expanding
        assert [len(block) for block in plan.blocks] == [len(block) for block in reference]
        assert tuple(tuple(block) for block in plan.blocks) == reference
        # encoding the reference entries gives back the same positions and runs
        assert DeliveryPlan(blocks=reference, mode=plan.mode) == plan
        assert all(type(r) is Run for block in plan.blocks for r in block.runs)


@PROPERTY
@given(corners())
def test_lazy_cache_listings_match_eager_reference(cfg):
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
    placement = place_centralized(cfg)
    assert placement.tx_cache == {i: frozenset(v) for i, v in tx_cache.items()}
    assert placement.rx_cache == {j: frozenset(v) for j, v in rx_cache.items()}
    assert placement.subfile_fraction == Fraction(1, len(tx_sets) * len(rx_sets))
