"""Per-entry reference forms of the exact accounting, for equivalence tests.

The library counts a plan's entries by caching weight and a block's
transmissions by label before doing any arithmetic.  The functions here do
the same work the direct way, one scheduled entry at a time, so the tests
can check that both give the same exact values.
"""

from __future__ import annotations

from fractions import Fraction

from cachenet.delivery import DeliveryPlan, ReceiverLedger, ScheduledSubfile, SubspaceLedger
from cachenet.model import NetworkConfig, binomial
from cachenet.placement import expected_fraction


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
