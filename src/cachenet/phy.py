"""Numeric zero-forcing verification on sampled channels.

Checks the linear-algebra claims a delivery plan relies on: precoder
weights really null the equivalent gain at every ZF target, destination
and interference gains stay generic, and two-transmitter gains coincide
with channel-matrix minors.  Interference alignment is *not* constructed
numerically; its feasibility enters only as the dimension counts of the
delivery ledger, and every report says so.

`verify_plan_phy` is the one verifier: it reads the runs of a plan (or of
tier plans) and checks every transmission of every block.  All checks are
batched, so their cost grows with the number of numpy calls per channel
rather than with the number of minors or transmissions.  The genericity
check builds the square minors of each size from those one size smaller.
`sample_channel` checks every size by default (about 0.2 s for a 12 x 12
draw); `verify_plan_phy` checks only the sizes its plans' ZF claims rest
on, up to max |ZF targets| + 1, which at t_T = 2 is sizes 1 and 2 (about
0.1 ms for a 12 x 12 draw).  Precoders
are computed once per distinct (transmitter set, ZF targets) pair, found by
integer ids per run rather than per transmission; their weights are signed
square minors, gathered from the tables the same recurrence builds up to the
largest target count, and every equivalent gain of a channel comes from one
matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator

import numpy as np

from .delivery import Block, DeliveryPlan
from .model import NetworkConfig, SubfileId, _is_int

__all__ = [
    "GenericityError",
    "ChannelMatrix",
    "PhyReport",
    "sample_channel",
    "verify_plan_phy",
    "IA_ASSUMPTION_NOTE",
]

IA_ASSUMPTION_NOTE = (
    "interference alignment accepted by dimension count only (not constructed numerically)"
)

GENERICITY_THRESHOLD = 1e-9
GENERICITY_FLOOR = 1e-12
MAX_SAMPLE_RETRIES = 100


class GenericityError(RuntimeError):
    """A sampled channel (or submatrix) is too close to degenerate."""


@dataclass(frozen=True)
class ChannelMatrix:
    """K_R x K_T complex channel gains, drawn i.i.d. circularly-symmetric Gaussian."""

    entries: np.ndarray = field(repr=False)
    seed: int
    # smallest |square minor| of size <= minor_size in the accepted draw (nan and 0 unless drawn by
    # sample_channel) and the draws rejected before it
    min_minor: float = float("nan")
    redraws: int = 0
    minor_size: int = 0

    @property
    def k_r(self) -> int:
        return self.entries.shape[0]

    @property
    def k_t(self) -> int:
        return self.entries.shape[1]


@lru_cache(maxsize=None)
def _combinations(n: int, size: int) -> np.ndarray:
    """All size-`size` subsets of range(n), lexicographically, as rows of a read-only index array."""
    idx = np.array(list(combinations(range(n), size)), dtype=np.intp).reshape(-1, size)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _rank(n: int, size: int) -> dict[tuple[int, ...], int]:
    """{subset: its row in _combinations(n, size)} for the size-`size` subsets of range(n) as sorted tuples."""
    return {c: k for k, c in enumerate(combinations(range(n), size))}


@lru_cache(maxsize=None)
def _drop_index(n: int, size: int) -> np.ndarray:
    """[a, i]: the rank in _combinations(n, size - 1) of row a of _combinations(n, size) without its i-th element."""
    rank = _rank(n, size - 1)
    idx = np.array([[rank[c[:i] + c[i + 1 :]] for i in range(size)] for c in combinations(range(n), size)], np.intp)
    idx.setflags(write=False)
    return idx


def _minors(h: np.ndarray) -> Iterator[np.ndarray]:
    """Every square minor of h, per size s = 1, 2, ...: det h[R, C] over lexicographic row and column sets.

    Along the last column c of C, det h[R, C] = sum_i (-1)^(i+s-1) h[r_i, c] det h[R minus r_i, C minus c].
    """
    k_r, k_t = h.shape
    minors = np.ones((1, 1))  # the one minor of size 0
    for size in range(1, min(k_r, k_t) + 1):
        rows, drop = _combinations(k_r, size), _drop_index(k_r, size)
        below = minors[:, _drop_index(k_t, size)[:, -1]]
        last = h[:, _combinations(k_t, size)[:, -1]]
        # t_{s-1} - t_{s-2} + ... over the terms t_i, in place, so temporaries stay C(K_R,s) x C(K_T,s)
        minors = 0
        for i in range(size):
            term = last[rows[:, i]]
            term *= below[drop[:, i]]
            term -= minors
            minors = term
        yield minors


def _smallest_minor(h: np.ndarray, max_size: int | None = None) -> float:
    """The smallest |square minor| of h over every size up to `max_size` (None: all); larger ones are never built."""
    return min(float(np.abs(minors).min()) for minors in islice(_minors(h), max_size))


def sample_channel(k_r: int, k_t: int, seed: int, max_size: int | None = None) -> ChannelMatrix:
    """Deterministic channel draw; re-samples while any square minor of size <= `max_size` is below GENERICITY_THRESHOLD.

    By default the check covers all C(K_R+K_T,K_R) - 1 square minors, built
    size by size in about 1 ms at K = 8 and 0.2 s at K = 12, so every ZF
    subsystem and equivalent gain of any scheme is generic.  A ZF claim with
    m targets rests only on minors of sizes m and m+1, so `max_size=m+1`
    suffices for a plan whose largest target count is m; the draws come in
    the same order.  The result keeps the accepted draw's smallest checked
    |minor|, the largest size checked and the re-draws.
    """
    if k_r < 1 or k_t < 1:
        raise ValueError("channel dimensions must be >= 1")
    if max_size is not None and max_size < 1:
        raise ValueError(f"largest minor size must be >= 1, got {max_size}")
    size = min(k_r, k_t) if max_size is None else min(k_r, k_t, max_size)
    rng = np.random.default_rng(seed)
    for redraws in range(MAX_SAMPLE_RETRIES):
        entries = (rng.standard_normal((k_r, k_t)) + 1j * rng.standard_normal((k_r, k_t))) / np.sqrt(2)
        smallest = _smallest_minor(entries, size)
        if smallest >= GENERICITY_THRESHOLD:
            entries.setflags(write=False)
            return ChannelMatrix(entries=entries, seed=seed, min_minor=smallest, redraws=redraws, minor_size=size)
    raise GenericityError(
        f"no generic {k_r}x{k_t} channel found in {MAX_SAMPLE_RETRIES} draws (seed={seed})"
    )


def _ranks(sets: list[Iterable[int]], ids: np.ndarray, n: int, size: int) -> np.ndarray:
    """Row in _combinations(n, size) of the first `size` sorted members of sets[i], for each i in ids (once per id)."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    rank = _rank(n, size)
    return np.array([rank[tuple(sorted(sets[i])[:size])] for i in distinct.tolist()], dtype=np.intp)[inverse]


class _ZfPrecoders:
    """ZF precoders of distinct (tx set, ZF-target set) pairs, prepared once for any channel.

    Pair k is (tx_sets[tx_ids[k]], targets[target_ids[k]]).  With m targets,
    the first m+1 sorted transmitters are active and their weights are the
    m+1 signed cofactors of the m x (m+1) target submatrix (Cramer's rule):
    minors of size m, read from the `_minors` table at the row of the target
    set and the `_drop_index` columns of the active set.  Pairs are grouped
    by m, and the ranks are looked up once per distinct set and channel shape.
    Every pair has more transmitters than targets (`_precoders` checks it).
    """

    def __init__(self, tx_sets: list[Iterable[int]], targets: list[Iterable[int]], tx_ids, target_ids):
        self.tx_sets, self.targets, self.tx_ids, self.target_ids = tx_sets, targets, tx_ids, target_ids
        m = np.array(list(map(len, targets)), dtype=np.intp)[target_ids]
        self.groups = [(size, np.flatnonzero(m == size)) for size in dict.fromkeys(m.tolist())]
        self._index: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    def _gather(self, k_r: int, k_t: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per group: each pair's table row, active transmitters and cofactor columns in the size-m table."""
        index = []
        for m, ks in self.groups:
            active = _ranks(self.tx_sets, self.tx_ids[ks], k_t, m + 1)
            rows = _ranks(self.targets, self.target_ids[ks], k_r, m)
            index.append((rows, _combinations(k_t, m + 1)[active], _drop_index(k_t, m + 1)[active]))
        return index

    def weights(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalized weights (pairs x K_T, zero off the active transmitters) and their scales."""
        if h.shape not in self._index:
            self._index[h.shape] = self._gather(*h.shape)
        weights = np.zeros((len(self.tx_ids), h.shape[1]), dtype=complex)
        scales = np.ones(len(self.tx_ids))
        # tables[m] holds the size-m minors; the one minor of size 0 makes every m = 0 weight 1
        tables = [np.ones((1, 1)), *islice(_minors(h), max((m for m, _ in self.groups), default=0))]
        for (m, ks), (rows, active, columns) in zip(self.groups, self._index[h.shape]):
            # cofactor i drops active column i
            cofactors = tables[m][rows[:, None], columns]
            cofactors *= (-1.0) ** np.arange(m + 1)
            weights[ks[:, None], active] = cofactors
            scales[ks] = np.max(np.abs(cofactors), axis=1)
        degenerate = np.flatnonzero(scales < GENERICITY_THRESHOLD)
        if degenerate.size:
            k = degenerate[0]
            txs = tuple(sorted(self.tx_sets[self.tx_ids[k]]))
            targets = tuple(sorted(self.targets[self.target_ids[k]]))
            raise GenericityError(f"degenerate ZF subsystem for tx={txs} targets={targets}; re-sample the channel")
        weights /= scales[:, None]
        return weights, scales


@dataclass(frozen=True)
class PhyReport:
    """Outcome of numeric checks for one or more blocks over one channel.

    `worst_leak` is the ZF headroom: the largest |gain at a ZF target| /
    |largest gain| over all checked transmissions (0 when none has a ZF
    target); a transmission leaks when it exceeds the relative tolerance.
    `genericity_margin` is the channel's smallest |square minor| / GENERICITY_THRESHOLD over
    the sizes `sample_channel` checked (its `minor_size`; nan unless drawn by `sample_channel`),
    `redraws` the draws rejected before it.
    """

    seed: int
    checked: int
    violations: tuple[str, ...]
    ic_flagged: int
    alignment_groups: int
    worst_leak: float = 0.0
    genericity_margin: float = float("nan")
    redraws: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"seed={self.seed}: {status}, {self.checked} transmissions checked, "
            f"{self.ic_flagged} cache-cancelled gains flagged, "
            f"{self.alignment_groups} alignment groups ({IA_ASSUMPTION_NOTE})"
        )


@dataclass(frozen=True)
class _Layout:
    """Channel-independent view of a run of blocks: one row per transmission, one column per receiver."""

    blocks: tuple[Block, ...]
    dest: np.ndarray
    zf: np.ndarray
    interfering: np.ndarray
    ic_flagged: int
    alignment_groups: int


def _mask(sets: list[frozenset[int]], k_r: int) -> np.ndarray:
    """(len(sets) x K_R) bool mask with row i marking the receivers in sets[i]."""
    mask = np.zeros((len(sets), k_r), dtype=bool)
    mask[
        np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
        np.fromiter(chain.from_iterable(sets), dtype=np.intp),
    ] = True
    return mask


def _layout(blocks: tuple[Block, ...], k_r: int) -> _Layout:
    """Classify every (transmission, receiver) pair as in `account_block`.

    A receiver that is neither the destination nor a ZF target is
    cache-cancelled when it holds the subfile and interfering otherwise;
    interference groups are the distinct (destination, cache holders, ZF
    targets) labels of a block, each spanning its interfering receivers.
    All of this is classified once per run and repeated over its entries.
    """
    runs = tuple(r for block in blocks for r in block.runs)
    dest = np.fromiter((r.dest for r in runs), dtype=np.intp, count=len(runs))
    zf = _mask([r.zf_targets for r in runs], k_r)
    cached = _mask([r.rx_set for r in runs], k_r)
    other = ~zf
    other[np.arange(len(runs)), dest] = False
    interfering = other & ~cached
    groups = 0
    start = 0
    for block in blocks:
        labels: dict[tuple, int] = {}
        for i, r in enumerate(block.runs, start):
            labels.setdefault((r.dest, r.rx_set, r.zf_targets), i)
        groups += int(np.count_nonzero(interfering[list(labels.values())]))
        start += len(block.runs)
    lengths = [len(r.tx_sets) for r in runs]
    return _Layout(
        blocks=blocks,
        dest=np.repeat(dest, lengths),
        zf=np.repeat(zf, lengths, axis=0),
        interfering=np.repeat(interfering, lengths, axis=0),
        ic_flagged=int((other & cached).sum(axis=1) @ np.array(lengths, dtype=np.intp)),
        alignment_groups=groups,
    )


def _precoders(blocks: tuple[Block, ...]) -> tuple[_ZfPrecoders, np.ndarray]:
    """Distinct precoders of the transmissions, in order of first use, and each transmission's precoder.

    Tx sets and ZF-target sets get integer ids, and a precoder is one (tx id, target id) pair.  Runs
    with equal tx sets and targets share their precoders, so ids and pairs are looked up once per
    distinct run label (a built plan shares one `tx_sets` tuple), not once per transmission.  Each
    label is checked by `Run.check_zf` at its first run, so the first infeasible run is named.
    """
    tx_index: dict[frozenset[int], int] = {}
    target_index: dict[frozenset[int], int] = {}
    pair_index: dict[tuple[int, int], int] = {}
    rows_of: dict[tuple, np.ndarray] = {}
    rows = [np.zeros(0, dtype=np.intp)]
    for position, r in ((b.position, r) for b in blocks for r in b.runs):
        label = (r.tx_sets, r.zf_targets)
        if label not in rows_of:
            r.check_zf(position)
            z = target_index.setdefault(r.zf_targets, len(target_index))
            pairs = ((tx_index.setdefault(ts, len(tx_index)), z) for ts in r.tx_sets)
            rows_of[label] = np.array([pair_index.setdefault(p, len(pair_index)) for p in pairs], dtype=np.intp)
        rows.append(rows_of[label])
    tx_ids, target_ids = np.array(list(pair_index), dtype=np.intp).reshape(-1, 2).T
    return _ZfPrecoders(list(tx_index), list(target_index), tx_ids, target_ids), np.concatenate(rows)


def _check(h: ChannelMatrix, layout: _Layout, mag: np.ndarray, rows: np.ndarray, rel_tol: float) -> PhyReport:
    """Leak, destination and interference checks of every transmission.

    `mag` holds the gain magnitudes of each precoder (precoders x K_R) and
    `rows` the precoder of each transmission.  Gains must vanish
    (relatively) at ZF targets and stay generic at the destination and at
    interfering receivers; one violation per offending transmission, all
    symptoms attached.
    """
    n = len(layout.dest)
    gmax = mag.max(axis=1)
    leak = layout.zf & (mag > rel_tol * gmax[:, None])[rows]
    quiet = (mag < GENERICITY_FLOOR * gmax[:, None])[rows]
    weak_dest = quiet[np.arange(n), layout.dest]
    weak = layout.interfering & quiet
    violations = []
    bad = np.flatnonzero(leak.any(axis=1) | weak_dest | weak.any(axis=1))
    # (position, run, tx set) of every transmission, in row order
    where = [(b.position, r, ts) for b in layout.blocks for r in b.runs for ts in r.tx_sets] if bad.size else []
    for i in bad:
        position, r, ts = where[i]
        issues = [
            f"zf-leak at rx {z + 1} (|gain|={mag[rows[i], z]:.3e}, max {gmax[rows[i]]:.3e})"
            for z in np.flatnonzero(leak[i])
        ]
        if weak_dest[i]:
            issues.append(f"degenerate destination gain at rx {r.dest + 1}")
        issues += [f"degenerate interference gain at rx {j + 1}" for j in np.flatnonzero(weak[i])]
        violations.append(
            f"block={position + 1} subfile={SubfileId(r.file, ts, r.rx_set).label()} dest={r.dest + 1}: "
            + "; ".join(issues)
        )
    # transmissions sharing a precoder share its ZF targets
    zf = np.zeros(mag.shape, dtype=bool)
    zf[rows] = layout.zf
    live = gmax > 0
    worst_leak = np.max(mag[live] / gmax[live, None], where=zf[live], initial=0.0)
    return PhyReport(
        seed=h.seed,
        checked=n,
        violations=tuple(violations),
        ic_flagged=layout.ic_flagged,
        alignment_groups=layout.alignment_groups,
        worst_leak=float(worst_leak),
        genericity_margin=h.min_minor / GENERICITY_THRESHOLD,
        redraws=h.redraws,
    )


def _minor_size(blocks: tuple[Block, ...]) -> int:
    """Largest square-minor size the blocks' ZF claims rest on: m+1 for m targets (gains; weights need size m)."""
    return 1 + max((len(r.zf_targets) for block in blocks for r in block.runs), default=0)


def verify_plan_phy(
    cfg: NetworkConfig,
    plans: list[DeliveryPlan],
    channel_seeds: int | list[int],
    rel_tol: float = 1e-9,
) -> list[PhyReport]:
    """Monte-Carlo ZF verification of a list of plans (one plan, or tier plans in order) over seeded channels.

    One report per seed, covering every block of every plan.  `channel_seeds` is a
    non-negative int (seeds 0..n-1) or a list of seeds; `rel_tol` must lie in (0, 1).
    A run too small to zero-force at its targets raises MalformedPlanError before any channel is drawn.
    Channels are checked for genericity only up to the minor size the plans use
    (`_minor_size`).  The draws come in the exhaustive check's order, so the two
    pick different channels only where a minor that no ZF claim uses is degenerate.
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"relative ZF tolerance must lie in (0, 1), got {rel_tol}")
    if isinstance(channel_seeds, int) and (not _is_int(channel_seeds) or channel_seeds < 0):
        raise ValueError(f"channel seed count must be a non-negative int, got {channel_seeds!r}")
    seeds = list(range(channel_seeds)) if isinstance(channel_seeds, int) else list(channel_seeds)
    if not seeds:
        return []
    layout = _layout(tuple(block for p in plans for block in p.blocks), cfg.k_r)
    distinct, rows = _precoders(layout.blocks)
    size = _minor_size(layout.blocks)
    reports = []
    for seed in seeds:
        h = sample_channel(cfg.k_r, cfg.k_t, seed, max_size=size)
        weights, _ = distinct.weights(h.entries)
        reports.append(_check(h, layout, np.abs(weights @ h.entries.T), rows, rel_tol))
    return reports
