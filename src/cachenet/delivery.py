"""Channel-block delivery planning with per-receiver signal-dimension accounting.

A plan schedules subfiles into synchronous channel blocks.  Within a block,
every transmission is precoded so that it is zero-forced at chosen
receivers; receivers that cached the subfile subtract it; whatever
interference remains is aligned, group by group, into single signal
dimensions.  The ledger here counts those dimensions; it does not construct
the alignment itself (that construction is asymptotic and is reported as an
assumption by the phy verifier).

Block construction is cyclic: block b assigns receiver j the subfiles
cached at receivers j+s (mod K_R) for the offsets s in block b's offset
set, and zero-forces them at the receivers following those offsets
cyclically.  Any schedule with the same per-receiver dimension counts is
equally valid; the cyclic one is the simplest deterministic choice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .model import (
    ConfigurationError,
    DemandVector,
    NetworkConfig,
    SubfileId,
    fmt_index_set,
    parse_index_set,
    subsets,
)
from .placement import CentralizedPlacement, DecentralizedPlacement

__all__ = [
    "ScheduledSubfile",
    "DeliveryPlan",
    "ReceiverLedger",
    "SubspaceLedger",
    "CompletenessReport",
    "build_centralized_plan",
    "build_tier_plan",
    "build_decentralized_plan",
    "account_block",
    "account_plan",
    "plan_sdof",
    "verify_completeness",
    "serialize_plan",
    "parse_plan",
    "parse_plans",
]


class ScheduledSubfile(NamedTuple):
    """One subfile transmission: destination, cache holders, ZF targets, block index.

    A plain tuple of those four fields, so plans of tens of thousands of
    entries stay cheap to build.
    """

    subfile: SubfileId
    dest: int
    zf_targets: frozenset[int]
    block: int

    def check(self) -> None:
        if self.dest in self.subfile.rx_set:
            raise ConfigurationError(f"{self.subfile.label()} scheduled to a receiver that cached it")
        if self.zf_targets & ({self.dest} | self.subfile.rx_set):
            raise ConfigurationError(
                f"{self.subfile.label()} zero-forced at its destination or at a caching receiver"
            )

    def check_indices(self, cfg: NetworkConfig) -> None:
        """Reject file, transmitter and receiver indices outside `cfg` (e.g. from a plan file)."""
        sub = self.subfile
        for name, indices, bound in (
            ("file", (sub.file,), cfg.n_files),
            ("tx", sub.tx_set, cfg.k_t),
            ("cachedRx", sub.rx_set, cfg.k_r),
            ("zf", self.zf_targets, cfg.k_r),
            ("dest", (self.dest,), cfg.k_r),
        ):
            bad = sorted(i + 1 for i in indices if not 0 <= i < bound)
            if bad:
                raise ConfigurationError(
                    f"block {self.block + 1}: {name} index {bad[0]} outside 1..{bound} in {sub.label()}"
                )


@dataclass(frozen=True)
class DeliveryPlan:
    """Ordered channel blocks of scheduled transmissions."""

    blocks: tuple[tuple[ScheduledSubfile, ...], ...]
    mode: str

    def entries(self) -> tuple[ScheduledSubfile, ...]:
        return tuple(e for block in self.blocks for e in block)


@dataclass(frozen=True)
class ReceiverLedger:
    """Classification of one block's transmissions as seen by one receiver.

    Counts are per transmission; `aligned_dims` is the number of residual
    interference groups, each of which collapses into one dimension.
    """

    desired: int
    zf_nulled: int
    ic_cancelled: int
    interfering: int
    aligned_dims: int

    @property
    def total_dims(self) -> int:
        return self.desired + self.aligned_dims

    @property
    def dof(self) -> Fraction:
        if self.total_dims == 0:
            return Fraction(0)
        return Fraction(self.desired, self.total_dims)


@dataclass(frozen=True)
class SubspaceLedger:
    """Per-receiver dimension ledgers for one block."""

    receivers: tuple[ReceiverLedger, ...]

    @property
    def uniform(self) -> bool:
        return len({r.total_dims for r in self.receivers}) <= 1 and len(
            {r.desired for r in self.receivers}
        ) <= 1

    @property
    def sdof(self) -> Fraction:
        """Sum DoF of the block: delivered subfiles per block dimension.

        The block length is set by the busiest receiver, so non-uniform
        ledgers are normalized by the maximum dimension count.
        """
        span = max((r.total_dims for r in self.receivers), default=0)
        if span == 0:
            return Fraction(0)
        return Fraction(sum(r.desired for r in self.receivers), span)


def _zf_offsets(k_r: int, cached_offsets: tuple[int, ...], n_zf: int) -> tuple[int, ...]:
    """Zero-forcing offsets: the first n_zf free offsets cyclically after the cache offsets."""
    start = max(cached_offsets) if cached_offsets else 0
    avail = sorted(
        (o for o in range(1, k_r) if o not in cached_offsets),
        key=lambda o: (o - start) % k_r,
    )
    return tuple(avail[:n_zf])


def _cyclic_blocks(k_r: int, n_cached: int, n_zf: int):
    """Yield, per block, the per-receiver (cache-holder set, ZF-target set) assignment.

    One block per size-n_cached set of nonzero cyclic offsets, in
    lexicographic offset order; every receiver is covered by exactly
    n_cached cache assignments and n_zf ZF assignments in every block.
    """
    for offset_base in subsets(k_r - 1, n_cached):
        offsets = tuple(s + 1 for s in offset_base)
        zf_offsets = _zf_offsets(k_r, offsets, n_zf)
        yield [
            (
                frozenset((j + o) % k_r for o in offsets),
                frozenset((j + z) % k_r for z in zf_offsets),
            )
            for j in range(k_r)
        ]


def _build_rotation_plan(
    cfg: NetworkConfig, demand: DemandVector, n_cached: int, mode: str
) -> DeliveryPlan:
    t_t = int(cfg.t_t)
    # With everything cached there is nothing to schedule and no ZF is needed;
    # otherwise at least one transmitter subset must hold each subfile.
    if n_cached >= cfg.k_r:
        return DeliveryPlan(blocks=(), mode=mode)
    if t_t < 1:
        raise ConfigurationError(
            "delivery needs t_T >= 1 (each subfile held by at least one transmitter)"
        )
    n_zf = min(t_t - 1, cfg.k_r - 1 - n_cached)
    tx_sets = [frozenset(ts) for ts in subsets(cfg.k_t, t_t)]
    blocks = []
    for b, assignment in enumerate(_cyclic_blocks(cfg.k_r, n_cached, n_zf)):
        block = tuple(
            ScheduledSubfile(SubfileId(demand.d[j], ts, cached), j, zf_targets, b)
            for j, (cached, zf_targets) in enumerate(assignment)
            for ts in tx_sets
        )
        blocks.append(block)
    return DeliveryPlan(blocks=tuple(blocks), mode=mode)


def build_centralized_plan(
    cfg: NetworkConfig, placement: CentralizedPlacement, demand: DemandVector
) -> DeliveryPlan:
    """Schedule every demanded, non-cached subfile exactly once.

    Each of the C(K_R-1, t_R) blocks delivers, per receiver, the
    C(K_T,t_T) subfiles sharing one (cache-holder, ZF-target) assignment;
    rotating the assignment across blocks covers every receiver subset not
    containing the destination exactly once.
    """
    if not (cfg.t_t_integral and cfg.t_r_integral):
        raise ConfigurationError(
            f"centralized delivery needs integral replication factors, got t_T={cfg.t_t}, t_R={cfg.t_r}"
        )
    demand.validate(cfg)
    return _build_rotation_plan(cfg, demand, int(cfg.t_r), mode="centralized")


def build_tier_plan(cfg: NetworkConfig, demand: DemandVector, tier: int) -> DeliveryPlan:
    """Decentralized delivery of the subfile classes cached at exactly `tier` other receivers."""
    if not cfg.t_t_integral:
        raise ConfigurationError(f"decentralized delivery needs integral t_T, got {cfg.t_t}")
    if not 0 <= tier <= cfg.k_r - 1:
        raise ValueError(f"tier {tier} outside [0, {cfg.k_r - 1}]")
    demand.validate(cfg)
    return _build_rotation_plan(cfg, demand, tier, mode=f"decentralized-tier({tier})")


def build_decentralized_plan(
    cfg: NetworkConfig, placement: DecentralizedPlacement, demand: DemandVector
) -> list[DeliveryPlan]:
    """One plan per caching tier t = 0..K_R-1.

    Tier t groups the classes cached at t receivers other than the
    destination.  Tiers with enough caching receivers need no alignment;
    the top tier t = K_R-1 degenerates to plain broadcast (no ZF targets
    remain).  Classes cached at the destination itself are never scheduled.
    """
    if placement.cfg != cfg:
        raise ConfigurationError("placement was built for a different configuration")
    return [build_tier_plan(cfg, demand, t) for t in range(cfg.k_r)]


def account_block(cfg: NetworkConfig, block: tuple[ScheduledSubfile, ...]) -> SubspaceLedger:
    """Classify every transmission at every receiver and count signal dimensions.

    At receiver r a transmission is desired (r is the destination),
    ZF-nulled (r is a ZF target), IC-cancelled (r cached the subfile) or
    interfering.  All of this depends only on the transmission's
    (destination, cache-holder set, ZF-target set) label, so the block is
    first collapsed into per-label counts, checking the first entry of each
    label in block order, and each label is classified once per receiver.
    Interfering transmissions of one label align into a single dimension,
    so `aligned_dims` is the number of interfering labels.
    """
    labels: dict[tuple[int, frozenset[int], frozenset[int]], int] = {}
    for e in block:
        label = (e.dest, e.subfile.rx_set, e.zf_targets)
        if label not in labels:
            e.check()
            labels[label] = 0
        labels[label] += 1
    ledgers = []
    for r in range(cfg.k_r):
        desired = zf = ic = interfering = aligned = 0
        for (dest, rx_set, zf_targets), n in labels.items():
            if dest == r:
                desired += n
            elif r in zf_targets:
                zf += n
            elif r in rx_set:
                ic += n
            else:
                interfering += n
                aligned += 1
        ledgers.append(
            ReceiverLedger(
                desired=desired,
                zf_nulled=zf,
                ic_cancelled=ic,
                interfering=interfering,
                aligned_dims=aligned,
            )
        )
    return SubspaceLedger(receivers=tuple(ledgers))


def account_plan(cfg: NetworkConfig, plan: DeliveryPlan) -> list[SubspaceLedger]:
    return [account_block(cfg, block) for block in plan.blocks]


def plan_sdof(cfg: NetworkConfig, plan: DeliveryPlan) -> Fraction:
    """Sum DoF of a plan whose blocks all share one ledger structure."""
    ledgers = account_plan(cfg, plan)
    if not ledgers:
        return Fraction(0)
    values = {ledger.sdof for ledger in ledgers}
    if len(values) != 1:
        raise ConfigurationError(f"blocks have differing sum DoF: {sorted(values)}")
    return values.pop()


@dataclass(frozen=True)
class CompletenessReport:
    """Coverage check: every needed subfile scheduled exactly once per destination."""

    missing: tuple[tuple[int, SubfileId], ...]
    duplicated: tuple[tuple[int, SubfileId], ...]
    extraneous: tuple[tuple[int, SubfileId], ...]
    scheduled: int

    @property
    def complete(self) -> bool:
        return not (self.missing or self.duplicated or self.extraneous)

    def summary(self) -> str:
        if self.complete:
            return f"complete: {self.scheduled} scheduled transmissions, no gaps, no duplicates"
        return (
            f"INCOMPLETE: {len(self.missing)} missing, {len(self.duplicated)} duplicated, "
            f"{len(self.extraneous)} extraneous (of {self.scheduled} scheduled)"
        )


def _needed_subfiles(
    cfg: NetworkConfig,
    placement: CentralizedPlacement | DecentralizedPlacement,
    demand: DemandVector,
) -> set[tuple[int, SubfileId]]:
    t_t = int(cfg.t_t)
    tx_sets = subsets(cfg.k_t, t_t)
    if isinstance(placement, CentralizedPlacement):
        rx_sets = subsets(cfg.k_r, int(cfg.t_r))
    else:
        rx_sets = tuple(s for size in range(cfg.k_r + 1) for s in subsets(cfg.k_r, size))
    needed = set()
    for j in range(cfg.k_r):
        for ts in tx_sets:
            for rs in rx_sets:
                if j in rs:
                    continue
                needed.add((j, SubfileId(demand.d[j], frozenset(ts), frozenset(rs))))
    return needed


def verify_completeness(
    cfg: NetworkConfig,
    plans: list[DeliveryPlan] | DeliveryPlan,
    placement: CentralizedPlacement | DecentralizedPlacement,
    demand: DemandVector,
) -> CompletenessReport:
    """Check that each destination receives exactly the subfiles it lacks."""
    if isinstance(plans, DeliveryPlan):
        plans = [plans]
    demand.validate(cfg)
    needed = _needed_subfiles(cfg, placement, demand)
    seen: dict[tuple[int, SubfileId], int] = {}
    total = 0
    for plan in plans:
        for e in plan.entries():
            total += 1
            key = (e.dest, e.subfile)
            seen[key] = seen.get(key, 0) + 1
    missing = tuple(sorted((k for k in needed if k not in seen), key=_subfile_key))
    duplicated = tuple(sorted((k for k, n in seen.items() if n > 1), key=_subfile_key))
    extraneous = tuple(sorted((k for k in seen if k not in needed), key=_subfile_key))
    return CompletenessReport(
        missing=missing, duplicated=duplicated, extraneous=extraneous, scheduled=total
    )


def _subfile_key(item: tuple[int, SubfileId]):
    dest, sub = item
    return (dest, sub.file, sorted(sub.tx_set), sorted(sub.rx_set))


# -- plan text format ------------------------------------------------------

_LINE_RE = re.compile(
    r"^block=(\d+) file=(\d+) tx=(\{[0-9,]*\}) cachedRx=(\{[0-9,]*\}) zf=(\{[0-9,]*\}) dest=(\d+)$"
)


def serialize_plan(plan: DeliveryPlan) -> str:
    """Line-oriented text form, one scheduled subfile per line, 1-based indices."""
    lines = [f"# mode={plan.mode}"]
    for block in plan.blocks:
        for e in block:
            lines.append(
                f"block={e.block + 1} file={e.subfile.file + 1} "
                f"tx={fmt_index_set(e.subfile.tx_set)} cachedRx={fmt_index_set(e.subfile.rx_set)} "
                f"zf={fmt_index_set(e.zf_targets)} dest={e.dest + 1}"
            )
    return "\n".join(lines) + "\n"


def parse_plans(text: str) -> list[DeliveryPlan]:
    """Inverse of concatenated serialize_plan outputs: one plan per `# mode=` header.

    A decentralized run writes one plan per tier into one file; this splits
    them back apart.  Tolerates comments and blank lines.
    """
    return _parse(text, single=False)


def parse_plan(text: str) -> DeliveryPlan:
    """Inverse of serialize_plan; tolerates comments and blank lines.

    Rejects a second `# mode=` header: concatenated plans go through
    parse_plans, so their tiers are never merged.
    """
    return _parse(text, single=True)[0]


def _parse(text: str, single: bool) -> list[DeliveryPlan]:
    plans: list[DeliveryPlan] = []
    mode = None
    by_block: dict[int, list[ScheduledSubfile]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.search(r"mode=(\S+)", line)
            if m:
                if mode is not None:
                    if single:
                        raise ValueError(
                            f"line {lineno}: second '# mode=' header; use parse_plans for concatenated plans"
                        )
                    plans.append(_assemble(by_block, mode))
                    by_block = {}
                mode = m.group(1)
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed plan entry {line!r}")
        try:
            block = int(m.group(1)) - 1
            if block < 0:
                raise ValueError("block index 0 is below 1")
            entry = ScheduledSubfile(
                subfile=SubfileId(
                    file=int(m.group(2)) - 1,
                    tx_set=parse_index_set(m.group(3)),
                    rx_set=parse_index_set(m.group(4)),
                ),
                dest=int(m.group(6)) - 1,
                zf_targets=parse_index_set(m.group(5)),
                block=block,
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        by_block.setdefault(block, []).append(entry)
    plans.append(_assemble(by_block, mode or "unknown"))
    return plans


def _assemble(by_block: dict[int, list[ScheduledSubfile]], mode: str) -> DeliveryPlan:
    return DeliveryPlan(blocks=tuple(tuple(by_block[b]) for b in sorted(by_block)), mode=mode)
