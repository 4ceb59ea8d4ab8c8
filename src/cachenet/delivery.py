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

Blocks are stored as runs, the one plan form: consecutive entries that
differ only in their transmitter set form one `Run`, so a rotation block is
one run per receiver.  Ledgers, oracle, completeness, label and range
checks, the plan text format and the phy verifier all read runs.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, repeat
from typing import NamedTuple

from .model import (
    ConfigurationError,
    DemandVector,
    NetworkConfig,
    SubfileId,
    binomial,
    fmt_index_set,
    parse_index_set,
    subsets,
)
from .placement import CentralizedPlacement, check_corner, tx_partition

__all__ = [
    "MalformedPlanError",
    "Run",
    "Block",
    "DeliveryPlan",
    "ReceiverLedger",
    "SubspaceLedger",
    "CompletenessReport",
    "build_centralized_plan",
    "build_decentralized_plan",
    "account_block",
    "account_plan",
    "common_sdof",
    "plan_sdof",
    "verify_completeness",
    "serialize_plan",
    "parse_plans",
    "check_plan_file",
    "IA_ASSUMPTION_NOTE",
]

# The most runs a plan, or all tier plans together, may hold: the 524,288 tier runs of 16
# receivers fit (a 16 x 16 oracle takes seconds), the 1,114,112 of 17 do not.
MAX_RUNS = 10**6

# Ledgers count one dimension per interference group; no signal-level alignment is built.
IA_ASSUMPTION_NOTE = (
    "interference alignment accepted by dimension count only (not constructed numerically)"
)


class MalformedPlanError(ConfigurationError):
    """A plan that breaks a rule of the scheme (IC, ZF or tier): `verify` reports it as a failed check."""


class Run(NamedTuple):
    """Consecutive entries of a block that differ only in tx set: one per element of `tx_sets`."""

    file: int
    dest: int
    rx_set: frozenset[int]
    zf_targets: frozenset[int]
    tx_sets: tuple[frozenset[int], ...]

    def _label(self, tx_set: frozenset[int]) -> str:
        return SubfileId(self.file, tx_set, self.rx_set).label()

    def check(self) -> None:
        """Reject delivery to a caching receiver and ZF at the destination or at a caching receiver."""
        if self.dest in self.rx_set:
            raise MalformedPlanError(f"{self._label(self.tx_sets[0])} scheduled to a receiver that cached it")
        if self.dest in self.zf_targets or not self.zf_targets.isdisjoint(self.rx_set):
            raise MalformedPlanError(
                f"{self._label(self.tx_sets[0])} zero-forced at its destination or at a caching receiver"
            )

    def check_zf(self, position: int) -> None:
        """Reject a tx set too small to zero-force at the run's targets: m targets need m+1 transmitters."""
        m = len(self.zf_targets)
        short = next((ts for ts in self.tx_sets if len(ts) <= m), None)
        if short is not None:
            raise MalformedPlanError(
                f"block {position + 1}: {self._label(short)} zero-forced at {m} receiver(s) by {len(short)} transmitter(s)"
            )

    def check_indices(self, cfg: NetworkConfig, position: int) -> None:
        """Reject file, transmitter and receiver indices outside `cfg` (e.g. from a plan file), naming the entry.

        Past the first entry only the tx set differs, so only the tx sets are checked there.
        """
        first = self.tx_sets[0]
        for name, indices, bound, tx_set in (
            ("file", (self.file,), cfg.n_files, first),
            ("tx", first, cfg.k_t, first),
            ("cachedRx", self.rx_set, cfg.k_r, first),
            ("zf", self.zf_targets, cfg.k_r, first),
            ("dest", (self.dest,), cfg.k_r, first),
            *(("tx", ts, cfg.k_t, ts) for ts in self.tx_sets[1:]),
        ):
            bad = sorted(i + 1 for i in indices if not 0 <= i < bound)
            if bad:
                raise ConfigurationError(
                    f"block {position + 1}: {name} index {bad[0]} outside 1..{bound} in {self._label(tx_set)}"
                )


@dataclass(frozen=True)
class Block:
    """A channel block's 0-based position and its runs, in entry order; len() counts its entries."""

    position: int
    runs: tuple[Run, ...]

    def __len__(self) -> int:
        return sum(len(r.tx_sets) for r in self.runs)


@dataclass(frozen=True)
class DeliveryPlan:
    """Ordered channel blocks of scheduled transmissions."""

    blocks: tuple[Block, ...]
    mode: str | None  # None for a plan parsed from a file without `# mode=` headers

    def runs(self) -> Iterator[tuple[int, Run]]:
        """(block position, run) of every run, in entry order."""
        return ((block.position, r) for block in self.blocks for r in block.runs)


class ReceiverLedger(NamedTuple):
    """One receiver's signal dimensions in one block (a plain tuple).

    `desired` counts the transmissions to the receiver; `aligned_dims` is the
    number of residual interference groups, each of which collapses into one
    dimension.
    """

    desired: int
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
        """All receivers' ledgers are equal."""
        return len(set(self.receivers)) <= 1

    @property
    def dims(self) -> tuple[int, int]:
        """(delivered subfiles, block span): the block length is set by the busiest receiver."""
        delivered = span = 0
        for r in self.receivers:
            delivered += r.desired
            if r.desired + r.aligned_dims > span:
                span = r.desired + r.aligned_dims
        return delivered, span


def _cyclic_blocks(k_r: int, n_cached: int, n_zf: int, sets: dict[int, tuple[frozenset[int], ...]]):
    """Yield, per block, the cache-holder sets and the ZF-target sets of receivers 0..K_R-1.

    One block per size-n_cached set of nonzero cyclic offsets, in
    lexicographic offset order; every receiver is covered by exactly
    n_cached cache assignments and n_zf ZF assignments in every block.
    A block's offsets are a bitmask, and its ZF offsets are the first n_zf
    free ones cyclically after its highest cache offset (after offset 0
    when it has none).  Receiver j's sets are the masks rotated by j;
    `sets` maps each mask to its K_R rotations, filled for a whole rotation
    orbit at once, so each distinct set is built once for every plan sharing
    the dict and shared by every run using it.
    """
    full = (1 << k_r) - 1

    def rotations(mask: int) -> tuple[frozenset[int], ...]:
        if mask not in sets:
            masks = [mask]
            for _ in range(k_r - 1):
                masks.append((masks[-1] << 1 | masks[-1] >> (k_r - 1)) & full)
            built = {m: frozenset(i for i in range(k_r) if m >> i & 1) for m in masks}
            orbit = [built[m] for m in masks] * 2
            for j, m in enumerate(masks):
                sets[m] = tuple(orbit[j : j + k_r])
        return sets[mask]

    for bits in combinations([1 << o for o in range(1, k_r)], n_cached):
        mask = sum(bits)
        # past the last offset the walk wraps to offset 1: offset 0, the receiver itself, is never free
        bit, zf = bits[-1] if bits else 1, 0
        while zf.bit_count() < n_zf:
            bit = bit << 1 & full or 2
            zf |= bit & ~mask
        yield rotations(mask), rotations(zf)


def _check_runs(n_runs: int, count: str, kind: str) -> None:
    """Refuse more runs than MAX_RUNS before any is built; `count` spells out how the `n_runs` runs of `kind` arise."""
    if n_runs > MAX_RUNS:
        raise ConfigurationError(f"{count} = {n_runs} {kind} exceed the bound of {MAX_RUNS}")


def _rotation_plan(
    cfg: NetworkConfig,
    demand: DemandVector,
    n_cached: int,
    mode: str,
    tx_sets: tuple[frozenset[int], ...],
    sets: dict[int, tuple[frozenset[int], ...]],
) -> DeliveryPlan:
    """The rotation plan of the subfiles cached at `n_cached` other receivers, over the partition `tx_sets`."""
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
    blocks = tuple(
        Block(b, tuple(map(Run, demand.d, range(cfg.k_r), cached, zf, repeat(tx_sets))))
        for b, (cached, zf) in enumerate(_cyclic_blocks(cfg.k_r, n_cached, n_zf, sets))
    )
    return DeliveryPlan(blocks=blocks, mode=mode)


def build_centralized_plan(
    cfg: NetworkConfig, placement: CentralizedPlacement | None, demand: DemandVector
) -> DeliveryPlan:
    """Schedule every demanded, non-cached subfile exactly once.

    Each of the C(K_R-1, t_R) blocks delivers, per receiver, the
    C(K_T,t_T) subfiles sharing one (cache-holder, ZF-target) assignment;
    rotating the assignment across blocks covers every receiver subset not
    containing the destination exactly once.  The plan follows from `cfg`
    alone: `placement` is unused, and kept only because
    perfbench/workloads.py passes one positionally (ROADMAP item 2).
    """
    check_corner(cfg, "centralized")
    demand.validate(cfg)
    k_r, t_r = cfg.k_r, int(cfg.t_r)
    if t_r < k_r:
        _check_runs(k_r * binomial(k_r - 1, t_r), f"{k_r} x C({k_r - 1},{t_r})", "runs")
    return _rotation_plan(cfg, demand, t_r, "centralized", tx_partition(cfg), {})


def build_decentralized_plan(cfg: NetworkConfig, demand: DemandVector) -> list[DeliveryPlan]:
    """One plan per caching tier t = 0..K_R-1.

    Tier t groups the classes cached at t receivers other than the
    destination.  Tiers with enough caching receivers need no alignment;
    the top tier t = K_R-1 degenerates to plain broadcast (no ZF targets
    remain).  Classes cached at the destination itself are never scheduled.
    A random placement only sets how many bits each class holds, so the
    plans follow from `cfg` alone.  The K_R x 2^(K_R-1) runs of all tiers are
    counted before any is built; the tiers share one transmitter partition and
    one set of rotated receiver sets.
    """
    check_corner(cfg, "decentralized")
    demand.validate(cfg)
    _check_runs(cfg.k_r << (cfg.k_r - 1), f"{cfg.k_r} x 2^{cfg.k_r - 1}", "tier-plan runs")
    tx_sets, sets = tx_partition(cfg), {}
    return [
        _rotation_plan(cfg, demand, t, f"decentralized-tier({t})", tx_sets, sets) for t in range(cfg.k_r)
    ]


def account_block(cfg: NetworkConfig, block: Block) -> SubspaceLedger:
    """Count each receiver's desired transmissions and aligned interference dimensions.

    At receiver r a transmission is desired when r is its destination, and
    interferes when r is none of destination, ZF target and cache holder.
    Both depend only on the transmission's (destination, cache-holder set,
    ZF-target set) label, so the block's runs are collapsed into per-label
    counts, checking each label once in block order, and each label is read
    once per receiver.  Interfering transmissions of one label align into a
    single dimension, so `aligned_dims` is the number of interfering labels.
    """
    labels: dict[tuple[int, frozenset[int], frozenset[int]], int] = {}
    for run in block.runs:
        label = (run.dest, run.rx_set, run.zf_targets)
        if label not in labels:
            run.check()
            labels[label] = 0
        labels[label] += len(run.tx_sets)
    ledgers = []
    for r in range(cfg.k_r):
        desired = aligned = 0
        for (dest, rx_set, zf_targets), n in labels.items():
            if dest == r:
                desired += n
            elif r not in zf_targets and r not in rx_set:
                aligned += 1
        ledgers.append(ReceiverLedger(desired, aligned))
    return SubspaceLedger(receivers=tuple(ledgers))


def account_plan(cfg: NetworkConfig, plan: DeliveryPlan) -> list[SubspaceLedger]:
    return [account_block(cfg, block) for block in plan.blocks]


def common_sdof(ledgers: list[SubspaceLedger]) -> Fraction:
    """The one sum DoF all block ledgers share: delivered subfiles per busiest-receiver dimension (0 for no blocks)."""
    values = {Fraction(d, span) if span else Fraction(0) for d, span in {ledger.dims for ledger in ledgers}}
    if len(values) > 1:
        raise ConfigurationError(f"blocks have differing sum DoF: {sorted(values)}")
    return values.pop() if values else Fraction(0)


def plan_sdof(cfg: NetworkConfig, plan: DeliveryPlan) -> Fraction:
    """Sum DoF of a plan whose blocks all share one ledger structure."""
    return common_sdof(account_plan(cfg, plan))


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


def verify_completeness(
    cfg: NetworkConfig, plans: list[DeliveryPlan], mode: str, demand: DemandVector
) -> CompletenessReport:
    """Check that each destination receives exactly the subfiles it lacks under `mode`'s placement.

    A centralized placement caches each subfile at t_R receivers; a
    decentralized one at any number.  Transmissions are grouped by
    (dest, file, rx_set) label, and each label's tx sets are checked at once.
    """
    # perfbench/workloads.py passes a CentralizedPlacement positionally until ROADMAP item 2 drops it
    mode = "centralized" if isinstance(mode, CentralizedPlacement) else mode
    check_corner(cfg, mode)
    demand.validate(cfg)
    all_tx = set(tx_partition(cfg))
    sizes = [int(cfg.t_r)] if mode == "centralized" else range(cfg.k_r + 1)
    rx_sets = [frozenset(rs) for size in sizes for rs in subsets(cfg.k_r, size)]
    needed = {(j, demand.d[j], rs) for j in range(cfg.k_r) for rs in rx_sets if j not in rs}
    scheduled: dict[tuple[int, int, frozenset[int]], list[tuple[frozenset[int], ...]]] = {}
    for p in plans:
        for _, r in p.runs():
            scheduled.setdefault((r.dest, r.file, r.rx_set), []).append(r.tx_sets)
    missing = [(label, ts) for label in needed - scheduled.keys() for ts in all_tx]
    duplicated, extraneous = [], []
    # a label scheduled by one run (as in a built plan) has that run's tx_sets tuple, and each distinct
    # tuple is compared with the partition once: the sets it lacks, those outside it and its repeats
    compared: dict[tuple[frozenset[int], ...], tuple[set, set, list]] = {}
    for label, runs in scheduled.items():
        tx_sets = runs[0] if len(runs) == 1 else tuple(chain.from_iterable(runs))
        if tx_sets not in compared:
            seen = set(tx_sets)
            repeats = [ts for ts, n in Counter(tx_sets).items() if n > 1] if len(seen) != len(tx_sets) else []
            compared[tx_sets] = all_tx - seen, seen - all_tx, repeats
        lacking, outside, repeats = compared[tx_sets]
        if label not in needed:
            extraneous += ((label, ts) for ts in set(tx_sets))
        elif lacking or outside:
            missing += ((label, ts) for ts in lacking)
            extraneous += ((label, ts) for ts in outside)
        if repeats:
            duplicated += ((label, ts) for ts in repeats)
    return CompletenessReport(
        missing=_listing(missing),
        duplicated=_listing(duplicated),
        extraneous=_listing(extraneous),
        scheduled=sum(len(tx_sets) for runs in scheduled.values() for tx_sets in runs),
    )


def _listing(items) -> tuple[tuple[int, SubfileId], ...]:
    """((dest, file, rx_set), tx_set) items as sorted (dest, SubfileId) pairs."""
    return tuple(sorted(((dest, SubfileId(f, ts, rs)) for (dest, f, rs), ts in items), key=_subfile_key))


def _subfile_key(item: tuple[int, SubfileId]):
    dest, sub = item
    return (dest, sub.file, sorted(sub.tx_set), sorted(sub.rx_set))


# -- plan text format ------------------------------------------------------

# an entry line with any whitespace around it; every other line is stripped first
_LINE_RE = re.compile(
    r"\s*block=(\d+) file=(\d+) tx=(\{[0-9,]*\}) cachedRx=(\{[0-9,]*\}) zf=(\{[0-9,]*\}) dest=(\d+)\s*"
)


def serialize_plan(plan: DeliveryPlan) -> str:
    """Line-oriented text form, one scheduled subfile per line, 1-based indices."""
    parts = [f"# mode={plan.mode}\n"]
    # the lines of a run differ only in their tx text; each distinct tx_sets tuple, cache-holder set
    # and ZF-target set is formatted once per call
    tx_texts: dict[tuple[frozenset[int], ...], list[str]] = {}
    set_texts: dict[frozenset[int], str] = {}
    for block in plan.blocks:
        for r in block.runs:
            if r.tx_sets not in tx_texts:
                tx_texts[r.tx_sets] = [fmt_index_set(ts) for ts in r.tx_sets]
            for s in (r.rx_set, r.zf_targets):
                if s not in set_texts:
                    set_texts[s] = fmt_index_set(s)
            head = f"block={block.position + 1} file={r.file + 1} tx="
            tail = f" cachedRx={set_texts[r.rx_set]} zf={set_texts[r.zf_targets]} dest={r.dest + 1}\n"
            parts.append(head + (tail + head).join(tx_texts[r.tx_sets]) + tail)
    return "".join(parts)


def parse_plans(text: str) -> list[DeliveryPlan]:
    """Inverse of serialize_plan and of concatenated serialize_plan outputs: one plan per `# mode=` header.

    A decentralized run writes one plan per tier into one file; this splits them back apart, so tiers
    are never merged: in a file with headers, an entry before the first one is an error.  A file
    without headers is one plan of mode None, which no header can spell; `check_plan_file` checks what
    headers say.  Tolerates comments, blank lines and whitespace around a line.

    The lines of a run differ only in their tx text.  So a line that is the last matched entry's text
    around an already-parsed index-set text continues that entry's run with no match; every other
    line is matched and parsed, and so gets every error with its line number.
    """
    modes: list[str] = []
    # per plan, each block position's runs as (label, tx sets) pairs in entry order
    sections: list[dict[int, list[tuple[tuple, list[frozenset[int]]]]]] = [{}]
    # a plan repeats a few index sets and labels many times: each distinct text is parsed once
    sets: dict[str, frozenset[int]] = {}
    labels: dict[tuple[str, ...], tuple] = {}

    def index_set(set_text: str) -> frozenset[int]:
        if set_text not in sets:
            sets[set_text] = parse_index_set(set_text)
        return sets[set_text]

    block_text = None
    # the last matched entry's text before and after its tx text, and its run's tx sets; no line holds
    # a newline, so none continues a run before the first entry or after a header
    head = tail = "\n"
    cut, txs = -1, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith(head) and raw.endswith(tail):
            ts = sets.get(raw[len(head):cut])
            if ts is not None:
                txs.append(ts)
                continue
        m = _LINE_RE.fullmatch(raw)
        if m is None:
            line = raw.strip()
            if line.startswith("#"):
                # a header is a comment whose text starts with mode=; any other comment is ignored
                m = re.match(r"#\s*mode=(\S+)", line)
                if m:
                    if modes:
                        sections.append({})
                    elif block_text is not None:
                        first = next(n for n, entry in enumerate(text.splitlines(), 1) if _LINE_RE.fullmatch(entry))
                        raise ValueError(f"line {first}: plan entry before the first '# mode=' header")
                    block_text = None
                    head = tail = "\n"
                    modes.append(m.group(1))
            elif line:
                raise ValueError(f"line {lineno}: malformed plan entry {line!r}")
            continue
        b, file, tx, rx, zf, dest = m.groups()
        try:
            if b != block_text:
                if int(b) < 1:
                    raise ValueError("block index 0 is below 1")
                runs = sections[-1].setdefault(int(b) - 1, [])
                block_text = b
            tx_set = index_set(tx)
            key = (file, rx, zf, dest)
            if key not in labels:
                labels[key] = (int(file) - 1, int(dest) - 1, index_set(rx), index_set(zf))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        label = labels[key]
        if not (runs and runs[-1][0] == label):
            runs.append((label, []))
        txs = runs[-1][1]
        txs.append(tx_set)
        head, tail, cut = raw[: m.start(3)], raw[m.end(3) :], m.end(3) - len(raw)
    # runs with equal tx-set sequences share one tuple, as in a built plan, so `phy._layout` matches them by identity
    shared: dict[tuple[frozenset[int], ...], tuple[frozenset[int], ...]] = {}

    def share(txs: list[frozenset[int]]) -> tuple[frozenset[int], ...]:
        return shared.setdefault(t := tuple(txs), t)

    return [
        DeliveryPlan(
            blocks=tuple(Block(b, tuple(Run(*label, share(txs)) for label, txs in by_block[b])) for b in sorted(by_block)),
            mode=mode,
        )
        for by_block, mode in zip(sections, modes or [None])
    ]


def _check_indices(cfg: NetworkConfig, plans: list[DeliveryPlan]) -> None:
    """Rule 4 of a plan file: `Run.check_indices`' error for the first run with an index outside `cfg`.

    Each distinct `tx_sets` tuple, and each run's file, destination and receiver sets, pass plain range
    and subset tests; only a run that fails one goes through `Run.check_indices`, which names the index.
    """
    tx_range, rx_range = frozenset(range(cfg.k_t)), frozenset(range(cfg.k_r))
    in_range: set[tuple[frozenset[int], ...]] = set()
    for p in plans:
        for position, r in p.runs():
            if r.tx_sets not in in_range:
                if not all(ts <= tx_range for ts in r.tx_sets):
                    r.check_indices(cfg, position)
                in_range.add(r.tx_sets)
            if not (0 <= r.file < cfg.n_files and 0 <= r.dest < cfg.k_r and r.rx_set <= rx_range and r.zf_targets <= rx_range):
                r.check_indices(cfg, position)


def check_plan_file(
    cfg: NetworkConfig, plans: list[DeliveryPlan], mode: str | None, demand: DemandVector | None
) -> tuple[list[DeliveryPlan], str, DemandVector, list[list[SubspaceLedger]]]:
    """Check the plans parsed from one file; return them with their mode, their demand and their ledgers.

    Bad input raises ConfigurationError, checked first: the first header, in file order, with a bad
    name, a repeat or a mix of modes; a `mode` that contradicts the headers; indices outside `cfg`;
    the demand (`demand`, else one file per destination).  A plan that breaks the scheme then raises
    MalformedPlanError: `Run.check`, `Run.check_zf`, and each tier plan's cache sizes, each rule on every
    run of every plan before the next.  A headerless plan is returned with the resolved mode: `mode`, or
    centralized.
    """
    tiers = {f"decentralized-tier({t})": t for t in range(cfg.k_r)}
    headers = [p.mode for p in plans if p.mode is not None]
    # every header before the first bad one is distinct and valid, so this loop is at most K_R + 2 long
    for i, header in enumerate(headers):
        if header != "centralized" and header not in tiers:
            raise ConfigurationError(
                f"plan header '# mode={header}' is neither centralized nor decentralized-tier(t) with 0 <= t < {cfg.k_r}"
            )
        if header in headers[:i]:
            raise ConfigurationError(f"plan header '# mode={header}' repeats an earlier header")
        if (header == "centralized") != (headers[0] == "centralized"):
            raise ConfigurationError(f"plan header '# mode={header}' mixes centralized and decentralized plans in one file")
    header_mode = ("centralized" if headers[0] == "centralized" else "decentralized") if headers else None
    if header_mode and mode not in (None, header_mode):
        raise ConfigurationError(f"mode {mode} contradicts the plan file's {header_mode} mode headers")
    mode = header_mode or mode or "centralized"
    plans = [p if p.mode else replace(p, mode=mode) for p in plans]
    _check_indices(cfg, plans)
    if demand is None:
        files: dict[int, int] = {}
        for p in plans:
            for _, r in p.runs():
                if files.setdefault(r.dest, r.file) != r.file:
                    raise ConfigurationError(f"plan schedules several files for rx {r.dest + 1}; pass --demand explicitly")
        demand = DemandVector(tuple(files.get(j, j % cfg.n_files) for j in range(cfg.k_r)))
    demand.validate(cfg)
    # accounting checks each label once, so the first malformed run fails first
    ledgers = [account_plan(cfg, p) for p in plans]
    # ZF feasibility once per tx_sets tuple and target count, over every plan before any tier is checked
    feasible: set[tuple[tuple[frozenset[int], ...], int]] = set()
    for p in plans:
        for position, r in p.runs():
            if (r.tx_sets, len(r.zf_targets)) not in feasible:
                r.check_zf(position)
                feasible.add((r.tx_sets, len(r.zf_targets)))
    for p in plans:
        tier = tiers.get(p.mode)
        for position, r in p.runs():
            if tier is not None and len(r.rx_set) != tier:
                raise MalformedPlanError(
                    f"block {position + 1}: {r._label(r.tx_sets[0])} cached at "
                    f"{len(r.rx_set)} receiver(s) in the {p.mode} plan"
                )
    return plans, mode, demand, ledgers
