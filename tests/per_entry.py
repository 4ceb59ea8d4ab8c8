"""Per-entry reference forms of plan building, checks, the exact accounting, ZF precoding and placement.

The library stores blocks as runs of entries that differ only in their
transmitter set (`entries` and `block_of` convert between a plan or block
and its `ScheduledSubfile` records here), sums a tier's expected bits
a run, not an entry, at a time, and counts a block's transmissions by
label before doing any arithmetic; its ledgers keep only the desired
and aligned counts, while `classify_block` here also counts the
ZF-nulled, IC-cancelled and interfering entries.  It checks
completeness per (dest, file, rx_set) label, finds a plan's distinct
precoders from integer ids and gathers their weights from batched minor
tables.  It stores a decentralized placement as one receiver code per
file bit.  The functions here do the same work the direct way, one
scheduled entry, one determinant or one cached bit at a time, so the
tests can check that both give the same entries, weights, reports and
exact values.  `parse_plans` reads plan text one line at a time, with a
full match and fresh field parses for every entry line.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from cachenet.delivery import (
    _LINE_RE,
    Block,
    CompletenessReport,
    DeliveryPlan,
    ReceiverLedger,
    SubspaceLedger,
    Run,
    build_decentralized_plan,
)
from cachenet.model import (
    ConfigurationError,
    DemandVector,
    NetworkConfig,
    SubfileId,
    binomial,
    parse_index_set,
    subsets,
)
from cachenet.placement import CentralizedPlacement


class ScheduledSubfile(NamedTuple):
    """One subfile transmission as a flat record: the subfile, its destination, ZF targets and block index."""

    subfile: SubfileId
    dest: int
    zf_targets: frozenset[int]
    block: int


def entries(plan: DeliveryPlan | Block) -> tuple[ScheduledSubfile, ...]:
    """Every transmission of a plan, or of one block, as a flat record, in entry order."""
    blocks = (plan,) if isinstance(plan, Block) else plan.blocks
    return tuple(
        ScheduledSubfile(SubfileId(r.file, ts, r.rx_set), r.dest, r.zf_targets, block.position)
        for block in blocks
        for r in block.runs
        for ts in r.tx_sets
    )


def _encode(pairs) -> tuple[Run, ...]:
    """Runs of ((file, dest, rx_set, zf_targets), tx_set) pairs given in entry order."""
    return tuple(Run(*label, tuple(tx for _, tx in run)) for label, run in groupby(pairs, key=itemgetter(0)))


def parse_plans(text: str) -> list[DeliveryPlan]:
    """Plan text to plans one line at a time: every entry line is matched and each of its fields parsed.

    An entry continues the last run of its block when it has that run's label, as in the library
    parser, and a `# mode=` header starts the next plan.  Errors carry the same messages and line numbers.
    """
    lines = text.splitlines()
    modes: list[str] = []
    sections: list[dict[int, list[tuple[tuple, list[frozenset[int]]]]]] = [{}]
    for lineno, raw in enumerate(lines, start=1):
        m = _LINE_RE.fullmatch(raw)
        if m is None:
            line = raw.strip()
            header = re.match(r"#\s*mode=(\S+)", line)
            if header:
                if not modes and any(sections[0].values()):
                    first = next(n for n, entry in enumerate(lines, 1) if _LINE_RE.fullmatch(entry))
                    raise ValueError(f"line {first}: plan entry before the first '# mode=' header")
                if modes:
                    sections.append({})
                modes.append(header.group(1))
            elif line and not line.startswith("#"):
                raise ValueError(f"line {lineno}: malformed plan entry {line!r}")
            continue
        b, file, tx, rx, zf, dest = m.groups()
        try:
            if int(b) < 1:
                raise ValueError("block index 0 is below 1")
            tx_set = parse_index_set(tx)
            label = (int(file) - 1, int(dest) - 1, parse_index_set(rx), parse_index_set(zf))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        runs = sections[-1].setdefault(int(b) - 1, [])
        if runs and runs[-1][0] == label:
            runs[-1][1].append(tx_set)
        else:
            runs.append((label, [tx_set]))
    return [
        DeliveryPlan(
            blocks=tuple(Block(b, tuple(Run(*label, tuple(txs)) for label, txs in by_block[b])) for b in sorted(by_block)),
            mode=mode,
        )
        for by_block, mode in zip(sections, modes or [None])
    ]


def block_of(records) -> Block:
    """The block of records given in entry order, at the first record's block index (crafted and damaged blocks)."""
    records = tuple(records)
    pairs = (((e.subfile.file, e.dest, e.subfile.rx_set, e.zf_targets), e.subfile.tx_set) for e in records)
    return Block(records[0].block, _encode(pairs))


def _zf_offsets(k_r: int, cached_offsets: tuple[int, ...], n_zf: int) -> tuple[int, ...]:
    """Zero-forcing offsets: the first n_zf free offsets cyclically after the cache offsets, by a sort."""
    start = max(cached_offsets) if cached_offsets else 0
    avail = sorted(
        (o for o in range(1, k_r) if o not in cached_offsets),
        key=lambda o: (o - start) % k_r,
    )
    return tuple(avail[:n_zf])


def rotation_blocks(
    cfg: NetworkConfig, demand: DemandVector, n_cached: int
) -> tuple[tuple[ScheduledSubfile, ...], ...]:
    """Entry tuples of the rotation plan for subfiles cached at `n_cached` other receivers.

    Built one entry at a time: one block per size-n_cached set of nonzero
    offsets in lexicographic order; in each block, receiver j caches at and
    zero-forces at the block's offsets shifted by j, with one entry per
    transmitter subset in lexicographic order.
    """
    if n_cached >= cfg.k_r:
        return ()
    t_t = int(cfg.t_t)
    n_zf = min(t_t - 1, cfg.k_r - 1 - n_cached)
    blocks = []
    for b, offset_base in enumerate(subsets(cfg.k_r - 1, n_cached)):
        offsets = tuple(s + 1 for s in offset_base)
        zf_offsets = _zf_offsets(cfg.k_r, offsets, n_zf)
        block = []
        for j in range(cfg.k_r):
            cached = frozenset((j + o) % cfg.k_r for o in offsets)
            zf_targets = frozenset((j + z) % cfg.k_r for z in zf_offsets)
            for ts in subsets(cfg.k_t, t_t):
                block.append(ScheduledSubfile(SubfileId(demand.d[j], frozenset(ts), cached), j, zf_targets, b))
        blocks.append(tuple(block))
    return tuple(blocks)


def tier_fractions(cfg: NetworkConfig, plans: list[DeliveryPlan], q: Fraction | None = None) -> list[Fraction]:
    """Expected scheduled mass per plan, summed one entry at a time.

    Each bit is cached at each receiver independently with probability `q`,
    M_R/N unless given, so a set of w receivers holds q^w (1-q)^(K_R-w) of it.
    """
    if q is None:
        q = cfg.m_r / cfg.n_files
    per_partition = Fraction(1, binomial(cfg.k_t, int(cfg.t_t)))
    by_weight = [per_partition * q**w * (1 - q) ** (cfg.k_r - w) for w in range(cfg.k_r + 1)]
    out = []
    for plan in plans:
        mass = Fraction(0)
        for e in entries(plan):
            mass += by_weight[len(e.subfile.rx_set)]
        out.append(mass)
    return out


class Classification(NamedTuple):
    """How one receiver sees one block's entries: per-entry counts and the number of interfering groups."""

    desired: int
    zf_nulled: int
    ic_cancelled: int
    interfering: int
    aligned_dims: int


def classify_block(cfg: NetworkConfig, block: tuple[ScheduledSubfile, ...]) -> tuple[Classification, ...]:
    """Classify each entry at each receiver as desired, ZF-nulled, IC-cancelled or interfering.

    Each entry's label is checked first, in entry order.  Interfering entries are grouped by label,
    one alignment group each.
    """
    for e in block:
        if e.dest in e.subfile.rx_set:
            raise ConfigurationError(f"{e.subfile.label()} scheduled to a receiver that cached it")
        if e.zf_targets & ({e.dest} | e.subfile.rx_set):
            raise ConfigurationError(f"{e.subfile.label()} zero-forced at its destination or at a caching receiver")
    out = []
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
        out.append(Classification(desired, zf, ic, interfering, len(groups)))
    return tuple(out)


def account_block(cfg: NetworkConfig, block: tuple[ScheduledSubfile, ...]) -> SubspaceLedger:
    """The ledger of `classify_block`: each receiver's desired entries and alignment groups."""
    return SubspaceLedger(receivers=tuple(ReceiverLedger(c.desired, c.aligned_dims) for c in classify_block(cfg, block)))


def plan_sdof(cfg: NetworkConfig, plan: DeliveryPlan) -> Fraction:
    """The one sum DoF of a plan's blocks: per block, delivered entries over the busiest receiver's dimensions."""
    values = set()
    for block in plan.blocks:
        ledgers = account_block(cfg, entries(block)).receivers
        values.add(Fraction(sum(r.desired for r in ledgers), max(r.desired + r.aligned_dims for r in ledgers)))
    (value,) = values
    return value


def verify_completeness(cfg: NetworkConfig, plans: list[DeliveryPlan], mode: str, demand: DemandVector):
    """Completeness from one (dest, (file, tx_set, rx_set)) key per needed subfile and per scheduled entry."""
    tx_sets = [frozenset(ts) for ts in subsets(cfg.k_t, int(cfg.t_t))]
    sizes = [int(cfg.t_r)] if mode == "centralized" else range(cfg.k_r + 1)
    rx_sets = [frozenset(rs) for size in sizes for rs in subsets(cfg.k_r, size)]
    needed = {
        (j, (demand.d[j], ts, rs)) for j in range(cfg.k_r) for rs in rx_sets if j not in rs for ts in tx_sets
    }
    seen = Counter((e.dest, tuple(e.subfile)) for p in plans for e in entries(p))

    def listing(keys):
        items = ((dest, SubfileId(*sub)) for dest, sub in keys)
        return tuple(sorted(items, key=lambda i: (i[0], i[1].file, sorted(i[1].tx_set), sorted(i[1].rx_set))))

    return CompletenessReport(
        missing=listing(needed - seen.keys()),
        duplicated=listing(k for k, n in seen.items() if n > 1),
        extraneous=listing(seen.keys() - needed),
        scheduled=seen.total(),
    )


def subfile_fraction(cfg: NetworkConfig) -> Fraction:
    """Share of a file in one centralized subfile: 1 / (C(K_T,t_T) C(K_R,t_R))."""
    return Fraction(1, binomial(cfg.k_t, int(cfg.t_t)) * binomial(cfg.k_r, int(cfg.t_r)))


_LABEL_RE = re.compile(r"W(\d+)\[tx=(\d*) rx=(\d+|-)\]")


def exported_caches(placement: CentralizedPlacement) -> tuple[dict[int, frozenset[SubfileId]], ...]:
    """The subfiles `export_text` lists per transmitter and per receiver, by 0-based node (one-digit indices).

    Each line must list its subfiles once each, sorted by label.
    """
    caches: dict[str, dict[int, frozenset[SubfileId]]] = {"tx": {}, "rx": {}}
    for line in placement.export_text().splitlines()[1:]:
        kind, node, names = re.fullmatch(r"(tx|rx) (\d+):(.*)", line).groups()
        subs = frozenset(
            SubfileId(int(f) - 1, frozenset(int(i) - 1 for i in tx), frozenset(int(j) - 1 for j in rx.strip("-")))
            for f, tx, rx in _LABEL_RE.findall(names)
        )
        assert " ".join(sorted(s.label() for s in subs)) == names.strip(), line
        caches[kind][int(node) - 1] = subs
    return caches["tx"], caches["rx"]


def precoders(blocks) -> tuple[list[tuple[frozenset[int], frozenset[int]]], list[int]]:
    """Distinct (tx_set, zf_targets) pairs in order of first use, and each transmission's pair, one entry at a time."""
    index: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    rows = [
        index.setdefault((e.subfile.tx_set, e.zf_targets), len(index)) for block in blocks for e in entries(block)
    ]
    return list(index), rows


def minor(h: np.ndarray, rows_removed, cols_removed) -> complex:
    """Determinant of h without the given rows and columns (1 when nothing remains); no cofactor sign."""
    return complex(np.linalg.det(np.delete(np.delete(h, sorted(rows_removed), axis=0), sorted(cols_removed), axis=1)))


def zf_weights(h: np.ndarray, tx_set, zf_targets) -> tuple[np.ndarray, float]:
    """Cramer's-rule ZF precoder across the sorted `tx_set`, one determinant per weight: (weights, scale).

    With m targets the first m+1 transmitters are active, and weight i is
    (-1)^i times the minor of the target rows and the active columns without
    column i; the rest stay silent.  The weights are divided by `scale`, the
    largest |raw weight|, so the largest has magnitude 1.
    """
    txs, targets = sorted(tx_set), sorted(zf_targets)
    active = txs[: len(targets) + 1]
    raw = np.zeros(len(txs), dtype=complex)
    for i in range(len(active)):
        raw[i] = (-1) ** i * np.linalg.det(h[np.ix_(targets, active[:i] + active[i + 1 :])])
    scale = float(np.max(np.abs(raw)))
    return raw / scale, scale


def equivalent_gains(h: np.ndarray, tx_set, weights: np.ndarray) -> np.ndarray:
    """Per-receiver gain of weights applied across the sorted `tx_set`."""
    return h[:, sorted(tx_set)] @ weights


def decentralized_mask(cfg: NetworkConfig, file_bits: int, seed: int) -> np.ndarray:
    """K_R x N x F bools, True where receiver j cached bit b of file f, for F = `file_bits`.

    The same PCG64 draws in the same order as `place_decentralized`:
    receiver outer, file inner, floor(M_R F/N) bits without replacement each.
    """
    per_file = int(cfg.m_r * file_bits / cfg.n_files)
    rng = np.random.default_rng(seed)
    mask = np.zeros((cfg.k_r, cfg.n_files, file_bits), dtype=bool)
    for j in range(cfg.k_r):
        for f in range(cfg.n_files):
            picked = rng.choice(file_bits, size=per_file, replace=False)
            mask[j, f, picked] = True
    return mask


def mask_profile(cfg: NetworkConfig, mask: np.ndarray, file: int) -> dict:
    """Bit counts of `file` by (tx partition, exact caching receiver set), one bit at a time; F is the mask's width."""
    tx_sets = subsets(cfg.k_t, int(cfg.t_t))
    partition_size = -(-mask.shape[2] // len(tx_sets))
    counts: dict = {}
    for b, cached in enumerate(mask[:, file].T.tolist()):
        key = (frozenset(tx_sets[b // partition_size]), frozenset(j for j, c in enumerate(cached) if c))
        counts[key] = counts.get(key, 0) + 1
    return counts


def by_receiver_code(profile: dict, k_r: int) -> list[int]:
    """A `mask_profile` summed over transmitter partitions: entry c counts the bits cached by exactly the receivers in c."""
    counts = [0] * (1 << k_r)
    for (_, rx), n in profile.items():
        counts[sum(1 << j for j in rx)] += n
    return counts


def mc_ndt_values(cfg: NetworkConfig, demand: DemandVector, file_bits: int, seeds: list[int]) -> list[Fraction]:
    """Per-seed finite-size delivery times from the reference mask, one scheduled entry at a time."""
    plans = build_decentralized_plan(cfg, demand)
    values = []
    for seed in seeds:
        mask = decentralized_mask(cfg, file_bits, seed)
        profiles = {f: mask_profile(cfg, mask, f) for f in set(demand.d)}
        total = Fraction(0)
        for plan in plans:
            if plan.blocks:
                bits = sum(
                    profiles[e.subfile.file].get((e.subfile.tx_set, e.subfile.rx_set), 0) for e in entries(plan)
                )
                total += Fraction(bits, file_bits) / plan_sdof(cfg, plan)
        values.append(total)
    return values
