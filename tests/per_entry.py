"""Per-entry reference forms of plan building and the exact accounting, for equivalence tests.

The library stores blocks as runs of entries that differ only in their
transmitter set, and counts a plan's entries by caching weight and a
block's transmissions by label before doing any arithmetic.  The functions
here do the same work the direct way, one scheduled entry at a time, so the
tests can check that both give the same entries and exact values.
"""

from __future__ import annotations

from fractions import Fraction

from cachenet.delivery import DeliveryPlan, ReceiverLedger, ScheduledSubfile, SubspaceLedger, _cyclic_blocks
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
