"""Per-entry reference forms of plan building, the exact accounting and placement, for equivalence tests.

The library stores blocks as runs of entries that differ only in their
transmitter set, and counts a plan's entries by caching weight and a
block's transmissions by label before doing any arithmetic.  It stores a
decentralized placement as one receiver code per file bit.  The functions
here do the same work the direct way, one scheduled entry or one cached
bit at a time, so the tests can check that both give the same entries and
exact values.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cachenet.delivery import (
    DeliveryPlan,
    ReceiverLedger,
    ScheduledSubfile,
    SubspaceLedger,
    _cyclic_blocks,
    build_tier_plan,
)
from cachenet.model import DemandVector, NetworkConfig, SubfileId, binomial, subsets
from cachenet.placement import expected_fraction


def rotation_blocks(
    cfg: NetworkConfig, demand: DemandVector, n_cached: int
) -> tuple[tuple[ScheduledSubfile, ...], ...]:
    """Entry tuples of the rotation plan for subfiles cached at `n_cached` other receivers.

    Built one entry at a time: in each block, receiver by receiver, one
    entry per transmitter subset in lexicographic order.
    """
    if n_cached >= cfg.k_r:
        return ()
    t_t = int(cfg.t_t)
    n_zf = min(t_t - 1, cfg.k_r - 1 - n_cached)
    blocks = []
    for b, assignment in enumerate(_cyclic_blocks(cfg.k_r, n_cached, n_zf)):
        block = []
        for j, (cached, zf_targets) in enumerate(assignment):
            for ts in subsets(cfg.k_t, t_t):
                block.append(ScheduledSubfile(SubfileId(demand.d[j], frozenset(ts), cached), j, zf_targets, b))
        blocks.append(tuple(block))
    return tuple(blocks)


def tier_fractions(cfg: NetworkConfig, plans: list[DeliveryPlan]) -> list[Fraction]:
    """Expected scheduled mass per plan, summed one entry at a time."""
    per_partition = Fraction(1, binomial(cfg.k_t, int(cfg.t_t)))
    by_weight = [per_partition * expected_fraction(cfg, w) for w in range(cfg.k_r + 1)]
    out = []
    for plan in plans:
        mass = Fraction(0)
        for e in plan.entries():
            mass += by_weight[len(e.subfile.rx_set)]
        out.append(mass)
    return out


def account_block(cfg: NetworkConfig, block: tuple[ScheduledSubfile, ...]) -> SubspaceLedger:
    """Classify each entry at each receiver; one alignment group per interfering label."""
    for e in block:
        e.check()
    ledgers = []
    for r in range(cfg.k_r):
        desired = zf = ic = interfering = 0
        groups = set()
        for e in block:
            if e.dest == r:
                desired += 1
            elif r in e.zf_targets:
                zf += 1
            elif r in e.subfile.rx_set:
                ic += 1
            else:
                interfering += 1
                groups.add((e.dest, e.subfile.rx_set, e.zf_targets))
        ledgers.append(ReceiverLedger(desired, zf, ic, interfering, len(groups)))
    return SubspaceLedger(receivers=tuple(ledgers))


def plan_sdof(cfg: NetworkConfig, plan: DeliveryPlan) -> Fraction:
    (value,) = {account_block(cfg, block).sdof for block in plan.blocks}
    return value


def decentralized_mask(cfg: NetworkConfig, seed: int) -> np.ndarray:
    """K_R x N x F bools, True where receiver j cached bit b of file f.

    The same PCG64 draws in the same order as `place_decentralized`:
    receiver outer, file inner, floor(M_R F/N) bits without replacement each.
    """
    per_file = int(cfg.m_r * cfg.file_bits / cfg.n_files)
    rng = np.random.default_rng(seed)
    mask = np.zeros((cfg.k_r, cfg.n_files, cfg.file_bits), dtype=bool)
    for j in range(cfg.k_r):
        for f in range(cfg.n_files):
            picked = rng.choice(cfg.file_bits, size=per_file, replace=False)
            mask[j, f, picked] = True
    return mask


def mask_profile(cfg: NetworkConfig, mask: np.ndarray, file: int) -> dict:
    """Bit counts of `file` by (tx partition, exact caching receiver set), one bit at a time."""
    tx_sets = subsets(cfg.k_t, int(cfg.t_t))
    partition_size = -(-cfg.file_bits // len(tx_sets))
    counts: dict = {}
    for b, cached in enumerate(mask[:, file].T.tolist()):
        key = (frozenset(tx_sets[b // partition_size]), frozenset(j for j, c in enumerate(cached) if c))
        counts[key] = counts.get(key, 0) + 1
    return counts


def mc_ndt_values(cfg: NetworkConfig, demand: DemandVector, seeds: list[int]) -> list[Fraction]:
    """Per-seed finite-size delivery times from the reference mask, one scheduled entry at a time."""
    plans = [build_tier_plan(cfg, demand, t) for t in range(cfg.k_r)]
    values = []
    for seed in seeds:
        mask = decentralized_mask(cfg, seed)
        profiles = {f: mask_profile(cfg, mask, f) for f in set(demand.d)}
        total = Fraction(0)
        for plan in plans:
            if plan.blocks:
                bits = sum(
                    profiles[e.subfile.file].get((e.subfile.tx_set, e.subfile.rx_set), 0) for e in plan.entries()
                )
                total += Fraction(bits, cfg.file_bits) / plan_sdof(cfg, plan)
        values.append(total)
    return values
