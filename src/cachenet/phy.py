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
rather than with the number of minors or transmissions.  Each channel is
drawn once (`_draw`) and checked for genericity only in the square minors
its plans' ZF claims rest on, of sizes up to max |ZF targets| + 1 (sizes 1
and 2 at t_T = 2, about 0.1 ms for a 12 x 12 draw); the minors of each size
are built from those one size smaller, and the tables of the target counts
the precoders use are kept, so each channel's minor tables are built once.
Precoders are computed once per distinct (transmitter set, ZF targets)
pair, found by integer ids per run rather than per transmission; their
weights are signed square minors gathered from those tables, and every
equivalent gain of a channel comes from one matrix product.  The leak and
genericity checks run per distinct precoder; a transmission is examined on
its own only when its precoder fails one of them or its destination is one
of its ZF targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator

import numpy as np

from .delivery import IA_ASSUMPTION_NOTE, Block, DeliveryPlan, Run
from .model import NetworkConfig, SubfileId, _is_int

__all__ = [
    "GenericityError",
    "PhyReport",
    "verify_plan_phy",
    "IA_ASSUMPTION_NOTE",
]

GENERICITY_THRESHOLD = 1e-9
GENERICITY_FLOOR = 1e-12
MAX_SAMPLE_RETRIES = 100


class GenericityError(RuntimeError):
    """A sampled channel (or submatrix) is too close to degenerate."""


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


def _minor_check(h: np.ndarray, max_size: int, keep=frozenset()) -> tuple[float, dict[int, np.ndarray]]:
    """The smallest |square minor| of h over every size up to `max_size`, and the tables of sizes in `keep`.

    Larger minors are never built, and only the kept tables outlive the recurrence.
    """
    smallest, tables = [], {}
    for size, minors in enumerate(islice(_minors(h), max_size), start=1):
        smallest.append(float(np.abs(minors).min()))
        if size in keep:
            tables[size] = minors
    return min(smallest), tables


def _draw(k_r: int, k_t: int, seed: int, size: int, keep=frozenset()) -> tuple[np.ndarray, float, int, dict]:
    """The seed's first K_R x K_T draw whose square minors of size <= `size` are all generic.

    Entries are i.i.d. circularly-symmetric complex Gaussian.  Returns the read-only entries, their
    smallest checked |minor|, the draws rejected before them and their minor tables of sizes in `keep`.
    """
    rng = np.random.default_rng(seed)
    for redraws in range(MAX_SAMPLE_RETRIES):
        entries = (rng.standard_normal((k_r, k_t)) + 1j * rng.standard_normal((k_r, k_t))) / np.sqrt(2)
        smallest, tables = _minor_check(entries, size, keep)
        if smallest >= GENERICITY_THRESHOLD:
            entries.setflags(write=False)
            return entries, smallest, redraws, tables
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
    minors of size m, read from the channel's size-m table at the row of the
    target set and the `_drop_index` columns of the active set.  Pairs are
    grouped by m, and the ranks are looked up once per distinct set and
    channel shape.  `sizes` are the table sizes the weights read (m >= 1).
    Every pair has more transmitters than targets (`_precoders` checks it).
    """

    def __init__(self, tx_sets: list[Iterable[int]], targets: list[Iterable[int]], tx_ids, target_ids):
        self.tx_sets, self.targets, self.tx_ids, self.target_ids = tx_sets, targets, tx_ids, target_ids
        m = np.array(list(map(len, targets)), dtype=np.intp)[target_ids]
        self.groups = [(size, np.flatnonzero(m == size)) for size in dict.fromkeys(m.tolist())]
        self.sizes = frozenset(size for size, _ in self.groups if size)
        self._index: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    def _gather(self, k_r: int, k_t: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per group: each pair's table row, active transmitters and cofactor columns in the size-m table."""
        index = []
        for m, ks in self.groups:
            active = _ranks(self.tx_sets, self.tx_ids[ks], k_t, m + 1)
            rows = _ranks(self.targets, self.target_ids[ks], k_r, m)
            index.append((rows, _combinations(k_t, m + 1)[active], _drop_index(k_t, m + 1)[active]))
        return index

    def weights(self, h: np.ndarray, tables: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Normalized weights (pairs x K_T, zero off the active transmitters) and their scales.

        `tables[m]` holds the size-m square minors of h (as `_minors` yields them) for every m in `sizes`.
        """
        if h.shape not in self._index:
            self._index[h.shape] = self._gather(*h.shape)
        weights = np.zeros((len(self.tx_ids), h.shape[1]), dtype=complex)
        scales = np.ones(len(self.tx_ids))
        for (m, ks), (rows, active, columns) in zip(self.groups, self._index[h.shape]):
            # cofactor i drops active column i; the one minor of size 0 makes every m = 0 weight 1
            cofactors = (tables[m] if m else np.ones((1, 1)))[rows[:, None], columns]
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
    the sizes its genericity check covered, `redraws` the draws rejected before it.
    """

    seed: int
    checked: int
    violations: tuple[str, ...]
    ic_flagged: int
    alignment_groups: int
    worst_leak: float
    genericity_margin: float
    redraws: int

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
    """Channel-independent view of the runs of some blocks and of their distinct precoders.

    Per run (one row each, one column per receiver): the destination, the
    ZF-target and interfering-receiver masks.  Per transmission: its run and
    its precoder.  Per precoder: its ZF-target mask.
    """

    runs: tuple[tuple[int, Run], ...]
    starts: np.ndarray
    dest: np.ndarray
    zf: np.ndarray
    interfering: np.ndarray
    run_of: np.ndarray
    rows: np.ndarray
    targets: np.ndarray
    nulled: np.ndarray
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


def _layout(blocks: tuple[Block, ...], k_r: int, distinct: _ZfPrecoders, rows: np.ndarray) -> _Layout:
    """Classify every (run, receiver) pair as in `account_block`.

    A receiver that is neither the destination nor a ZF target is
    cache-cancelled when it holds the subfile and interfering otherwise;
    interference groups are the distinct (destination, cache holders, ZF
    targets) labels of a block, each spanning its interfering receivers.
    `rows` is each transmission's precoder in `distinct`; `nulled` lists the
    transmissions whose destination is one of their ZF targets.
    """
    runs = tuple((b.position, r) for b in blocks for r in b.runs)
    dest = np.fromiter((r.dest for _, r in runs), dtype=np.intp, count=len(runs))
    zf = _mask([r.zf_targets for _, r in runs], k_r)
    cached = _mask([r.rx_set for _, r in runs], k_r)
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
    lengths = np.array([len(r.tx_sets) for _, r in runs], dtype=np.intp)
    run_of = np.repeat(np.arange(len(runs)), lengths)
    return _Layout(
        runs=runs,
        starts=np.cumsum(lengths) - lengths,
        dest=dest,
        zf=zf,
        interfering=interfering,
        run_of=run_of,
        rows=rows,
        targets=_mask(distinct.targets, k_r)[distinct.target_ids],
        nulled=np.flatnonzero(zf[np.arange(len(runs)), dest][run_of]),
        ic_flagged=int((other & cached).sum(axis=1) @ lengths),
        alignment_groups=groups,
    )


def _precoders(blocks: tuple[Block, ...]) -> tuple[_ZfPrecoders, np.ndarray]:
    """Distinct precoders of the transmissions, in order of first use, and each transmission's precoder.

    Tx sets and ZF-target sets get integer ids, and a precoder is one (tx id, target id) pair.  Runs
    with equal tx sets and targets share their precoders, so each distinct run label is handled once
    (a built or parsed plan shares one `tx_sets` tuple), and the tx ids of each distinct `tx_sets`
    tuple are looked up once; pair ids then come from numpy, in order of first use.  `Run.check_zf` depends only
    on the tx sets and the target count, so it runs at the first run of each such pair, which names
    the first infeasible run.
    """
    tx_index: dict[frozenset[int], int] = {}
    target_index: dict[frozenset[int], int] = {}
    tx_ids_of: dict[tuple[frozenset[int], ...], np.ndarray] = {}
    label_index: dict[tuple, int] = {}
    labels: list[tuple[np.ndarray, int]] = []  # (tx ids, target id) of each distinct label
    run_labels = []
    feasible: set[tuple[tuple[frozenset[int], ...], int]] = set()
    for position, r in ((b.position, r) for b in blocks for r in b.runs):
        label = (r.tx_sets, r.zf_targets)
        if label not in label_index:
            if (r.tx_sets, len(r.zf_targets)) not in feasible:
                r.check_zf(position)
                feasible.add((r.tx_sets, len(r.zf_targets)))
            if r.tx_sets not in tx_ids_of:
                tx_ids_of[r.tx_sets] = np.array([tx_index.setdefault(ts, len(tx_index)) for ts in r.tx_sets], np.intp)
            label_index[label] = len(labels)
            labels.append((tx_ids_of[r.tx_sets], target_index.setdefault(r.zf_targets, len(target_index))))
        run_labels.append(label_index[label])
    # pair (t, z) is coded t * n + z; np.unique gives each code's first use, which orders the pair ids
    n = max(len(target_index), 1)
    codes = np.concatenate([tx * n + z for tx, z in labels] or [np.zeros(0, np.intp)])
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    pair_id = np.empty_like(order)
    pair_id[order] = np.arange(len(order))
    label_rows = np.split(pair_id[inverse], np.cumsum([len(tx) for tx, _ in labels])[:-1])
    rows = np.concatenate([label_rows[i] for i in run_labels] or [np.zeros(0, np.intp)])
    tx_ids, target_ids = np.divmod(distinct[order], n)
    return _ZfPrecoders(list(tx_index), list(target_index), tx_ids, target_ids), rows


def _check(seed: int, smallest: float, redraws: int, layout: _Layout, mag: np.ndarray, rel_tol: float) -> PhyReport:
    """Leak, destination and interference checks of every transmission over the channel `_draw` gave for `seed`.

    `smallest` and `redraws` are the draw's smallest checked |minor| and
    re-draw count; `mag` holds the gain magnitudes of each precoder
    (precoders x K_R).
    Gains must vanish (relatively) at ZF targets and stay generic at the
    destination and at interfering receivers; one violation per offending
    transmission, all symptoms attached.  Transmissions sharing a precoder
    share its ZF targets, so a transmission can offend only if its precoder
    leaks at a target, is quiet off its targets (destinations and
    interferers are off them) or its destination is a target; only those
    transmissions are examined one by one.
    """
    gmax = mag.max(axis=1)
    loud = mag > rel_tol * gmax[:, None]
    quiet = mag < GENERICITY_FLOOR * gmax[:, None]
    suspect = np.where(layout.targets, loud, quiet).any(axis=1)
    candidates = layout.nulled
    if suspect.any():
        candidates = np.union1d(np.flatnonzero(suspect[layout.rows]), candidates)
    p, run = layout.rows[candidates], layout.run_of[candidates]
    leak = layout.zf[run] & loud[p]
    weak_dest = quiet[p, layout.dest[run]]
    weak = layout.interfering[run] & quiet[p]
    violations = []
    for c in np.flatnonzero(leak.any(axis=1) | weak_dest | weak.any(axis=1)):
        position, r = layout.runs[run[c]]
        ts = r.tx_sets[candidates[c] - layout.starts[run[c]]]
        issues = [
            f"zf-leak at rx {z + 1} (|gain|={mag[p[c], z]:.3e}, max {gmax[p[c]]:.3e})"
            for z in np.flatnonzero(leak[c])
        ]
        if weak_dest[c]:
            issues.append(f"degenerate destination gain at rx {r.dest + 1}")
        issues += [f"degenerate interference gain at rx {j + 1}" for j in np.flatnonzero(weak[c])]
        violations.append(
            f"block={position + 1} subfile={SubfileId(r.file, ts, r.rx_set).label()} dest={r.dest + 1}: "
            + "; ".join(issues)
        )
    live = gmax > 0
    worst_leak = np.max(mag[live] / gmax[live, None], where=layout.targets[live], initial=0.0)
    return PhyReport(
        seed=seed,
        checked=len(layout.rows),
        violations=tuple(violations),
        ic_flagged=layout.ic_flagged,
        alignment_groups=layout.alignment_groups,
        worst_leak=float(worst_leak),
        genericity_margin=smallest / GENERICITY_THRESHOLD,
        redraws=redraws,
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
    (`_minor_size`).  The draws come in the order an exhaustive check would take them,
    so the two pick different channels only where a minor that no ZF claim uses is degenerate.
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"relative ZF tolerance must lie in (0, 1), got {rel_tol}")
    if isinstance(channel_seeds, int) and (not _is_int(channel_seeds) or channel_seeds < 0):
        raise ValueError(f"channel seed count must be a non-negative int, got {channel_seeds!r}")
    seeds = list(range(channel_seeds)) if isinstance(channel_seeds, int) else list(channel_seeds)
    if not seeds:
        return []
    blocks = tuple(block for p in plans for block in p.blocks)
    distinct, rows = _precoders(blocks)
    layout = _layout(blocks, cfg.k_r, distinct, rows)
    size = min(cfg.k_r, cfg.k_t, _minor_size(blocks))
    reports = []
    for seed in seeds:
        h, smallest, redraws, tables = _draw(cfg.k_r, cfg.k_t, seed, size, keep=distinct.sizes)
        weights, _ = distinct.weights(h, tables)
        del tables  # the weights are gathered; the tables would only raise the peak memory of the next draw
        reports.append(_check(seed, smallest, redraws, layout, np.abs(weights @ h.T), rel_tol))
    return reports
