"""Numeric zero-forcing verification on sampled channels.

Checks the linear-algebra claims a delivery plan relies on: precoder
weights really null the equivalent gain at every ZF target, destination
and interference gains stay generic, and two-transmitter gains coincide
with channel-matrix minors.  Interference alignment is *not* constructed
numerically; its feasibility enters only as the dimension counts of the
delivery ledger, and every report says so.

`verify_plan_phy` is the one verifier: it reads the runs of a plan (or of
tier plans) and checks every transmission of every block, at a cost that
grows with the numpy calls per channel rather than with the number of
minors or transmissions.  Before any channel is drawn, the plans' indices
are checked against the configuration, and one walk over the runs
(`_layout`) applies `Run.check` and `Run.check_zf`, finds the distinct
precoders, one per (transmitter set, ZF targets) pair from integer ids per
run label, places each transmission at its run and precoder, and counts
the cache-cancelled gains and alignment groups.  Each channel is drawn
once (`_draw`) and checked for genericity only in the square minors the
precoders rest on, of sizes up to max |ZF targets| + 1; each size is built
from the one below, and the tables the weights read, as signed minors, are
kept.  The checks are laid out receiver-major: a channel's gains are one
K_R x precoders array, so each precoder's largest gain, largest gain at a
ZF target and smallest gain off its targets are reductions over contiguous
receiver rows.  A transmission is examined on its own only when its
precoder fails a check; its receivers are then classified from its own
run's sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator

import numpy as np

from .delivery import IA_ASSUMPTION_NOTE, Block, DeliveryPlan, Run, _check_indices
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


def _minor_check(h: np.ndarray, max_size: int, keep: frozenset[int]) -> tuple[float, dict[int, np.ndarray]]:
    """The smallest |square minor| of h over every size up to `max_size`, and the tables of sizes in `keep`.

    Larger minors are never built, and only the kept tables outlive the recurrence.
    """
    smallest, tables = [], {}
    for size, minors in enumerate(islice(_minors(h), max_size), start=1):
        smallest.append(float(np.abs(minors).min()))
        if size in keep:
            tables[size] = minors
    return min(smallest), tables


def _draw(k_r: int, k_t: int, seed: int, size: int, keep: frozenset[int]) -> tuple[np.ndarray, float, int, dict]:
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
    """ZF precoders of distinct (tx set, ZF-target set) pairs, with their cofactor index for one channel shape.

    Pair k is (tx_sets[tx_ids[k]], targets[target_ids[k]]).  With m targets,
    the first m+1 sorted transmitters are active and their weights are the
    m+1 signed cofactors of the m x (m+1) target submatrix (Cramer's rule):
    minors of size m, read from the channel's size-m table at the row of the
    target set and the `_drop_index` columns of the active set.  Pairs are
    grouped by m, and each group's table rows, active transmitters and
    cofactor columns are looked up once, per distinct set.  `sizes` are the
    table sizes the weights read (m >= 1); `minor_size` is the largest square
    minor the pairs' ZF claims rest on: m+1 for the largest m (gains).  Every
    pair has more transmitters than targets (`_layout` checks it).
    """

    def __init__(self, tx_sets: list[frozenset[int]], targets: list[frozenset[int]], tx_ids, target_ids, k_r, k_t):
        self.tx_sets, self.targets, self.tx_ids, self.target_ids = tx_sets, targets, tx_ids, target_ids
        counts = np.array(list(map(len, targets)), dtype=np.intp)[target_ids]
        self.groups = []
        for m in np.unique(counts).tolist():
            ks = np.flatnonzero(counts == m)
            active = _ranks(tx_sets, tx_ids[ks], k_t, m + 1)
            rows = _ranks(targets, target_ids[ks], k_r, m)
            self.groups.append((m, ks, rows, _combinations(k_t, m + 1)[active].T, _drop_index(k_t, m + 1)[active].T))
        self.sizes = frozenset(m for m, *_ in self.groups if m)
        self.minor_size = min(k_r, k_t, 1 + max((m for m, *_ in self.groups), default=0))

    def weights(self, h: np.ndarray, tables: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Normalized weights (K_T x pairs, zero off the active transmitters) and their scales.

        `tables[m]` holds the size-m square minors of h (as `_minors` yields them) for every m in `sizes`.
        Cofactors are gathered as (m+1) x pairs, so each pair's scale is a reduction over contiguous rows.
        """
        scales = np.ones(len(self.tx_ids))
        gathered = []
        for m, ks, rows, active, columns in self.groups:
            # cofactor i drops active column i; the one minor of size 0 makes every m = 0 weight 1
            cofactors = (tables[m] if m else np.ones((1, 1)))[rows, columns]
            cofactors *= ((-1.0) ** np.arange(m + 1))[:, None]
            scales[ks] = np.abs(cofactors).max(axis=0)
            gathered.append((ks, active, cofactors))
        degenerate = np.flatnonzero(scales < GENERICITY_THRESHOLD)
        if degenerate.size:
            k = degenerate[0]
            txs = tuple(sorted(self.tx_sets[self.tx_ids[k]]))
            targets = tuple(sorted(self.targets[self.target_ids[k]]))
            raise GenericityError(f"degenerate ZF subsystem for tx={txs} targets={targets}; re-sample the channel")
        weights = np.zeros((h.shape[1], len(self.tx_ids)), dtype=complex)
        for ks, active, cofactors in gathered:
            cofactors /= scales[ks]
            weights[active, ks] = cofactors
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
    """Channel-independent view of the runs of some blocks, their transmissions and their distinct precoders.

    Per run: its block position and the run, and the index of its first
    transmission.  Per transmission: its run and its precoder in `precoders`.
    Per precoder (one column each, one row per receiver, as in the gains
    `_check` reduces): its ZF-target mask.
    """

    runs: tuple[tuple[int, Run], ...]
    starts: np.ndarray
    run_of: np.ndarray
    precoders: _ZfPrecoders
    rows: np.ndarray
    targets: np.ndarray
    ic_flagged: int
    alignment_groups: int


def _layout(blocks: tuple[Block, ...], k_r: int, k_t: int) -> _Layout:
    """One walk over the runs of `blocks`: their distinct precoders, the place of each transmission, and the counts.

    Tx sets and ZF-target sets get integer ids, and a precoder is one (tx id, target id) pair.  Runs
    with equal tx sets and targets share their precoders, so each distinct run label is handled once
    (a built or parsed plan shares one `tx_sets` tuple), and the tx ids of each distinct `tx_sets`
    tuple are looked up once; pair ids then come from numpy, in order of first use.  `Run.check`
    runs at the first run of each (destination, cache holders, ZF targets) group of a block, as
    `account_block` checks each label once.  After the walk, as in `check_plan_file`, `Run.check_zf`,
    which depends only on the tx sets and the target count, runs at the first run of each such pair;
    so both name the same malformed run.

    `Run.check` keeps the destination, the cache holders and the ZF targets disjoint, so, as in
    `account_block`, each transmission flags one cache-cancelled gain per cache holder, and each group
    of a block is one alignment group per receiver in none of the three.
    """
    tx_index: dict[frozenset[int], int] = {}
    target_index: dict[frozenset[int], int] = {}
    tx_ids_of: dict[tuple[frozenset[int], ...], np.ndarray] = {}
    label_index: dict[tuple, int] = {}
    labels: list[tuple[np.ndarray, int]] = []  # (tx ids, target id) of each distinct label
    # the first run of each (tx sets, target count) pair, with its block position
    zf_firsts: dict[tuple[tuple[frozenset[int], ...], int], tuple[int, Run]] = {}
    runs, run_labels = [], []
    ic_flagged = alignment_groups = 0
    for block in blocks:
        groups = set()
        for r in block.runs:
            group = (r.dest, r.rx_set, r.zf_targets)
            if group not in groups:
                r.check()
                groups.add(group)
                alignment_groups += k_r - 1 - len(r.rx_set) - len(r.zf_targets)
            label = (r.tx_sets, r.zf_targets)
            k = label_index.get(label)  # one hash of the label per run: it holds every tx set
            if k is None:
                zf_firsts.setdefault((r.tx_sets, len(r.zf_targets)), (block.position, r))
                if r.tx_sets not in tx_ids_of:
                    tx_ids_of[r.tx_sets] = np.array([tx_index.setdefault(ts, len(tx_index)) for ts in r.tx_sets], np.intp)
                k = label_index[label] = len(labels)
                labels.append((tx_ids_of[r.tx_sets], target_index.setdefault(r.zf_targets, len(target_index))))
            runs.append((block.position, r))
            run_labels.append(k)
            ic_flagged += len(r.rx_set) * len(r.tx_sets)
    for position, r in zf_firsts.values():
        r.check_zf(position)
    # pair (t, z) is coded t * n + z; np.unique gives each code's first use, which orders the pair ids
    n = max(len(target_index), 1)
    lengths = np.array([len(tx) for tx, _ in labels], dtype=np.intp)
    codes = np.concatenate([tx for tx, _ in labels] or [np.zeros(0, np.intp)]) * n
    codes += np.repeat(np.array([z for _, z in labels], dtype=np.intp), lengths)
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    pair_id = np.empty_like(order)
    pair_id[order] = np.arange(len(order))
    # transmission q, the k-th of a run, reads code k of the run's label: q plus the label's start less the run's
    run_lengths = lengths[run_labels]
    shift = np.cumsum(lengths)[run_labels] - np.cumsum(run_lengths)
    tx_ids, target_ids = np.divmod(distinct[order], n)
    zf = np.zeros((len(target_index), k_r), dtype=bool)
    for z, targets in enumerate(target_index):
        zf[z, list(targets)] = True
    return _Layout(
        runs=tuple(runs),
        starts=np.cumsum(run_lengths) - run_lengths,
        run_of=np.repeat(np.arange(len(runs)), run_lengths),
        precoders=_ZfPrecoders(list(tx_index), list(target_index), tx_ids, target_ids, k_r, k_t),
        rows=pair_id[inverse[np.arange(run_lengths.sum()) + np.repeat(shift, run_lengths)]],
        targets=zf[target_ids].T.copy(),
        ic_flagged=ic_flagged,
        alignment_groups=alignment_groups,
    )


def _check(seed: int, smallest: float, redraws: int, layout: _Layout, mag: np.ndarray, rel_tol: float) -> PhyReport:
    """Leak, destination and interference checks of every transmission over the channel `_draw` gave for `seed`.

    `smallest` and `redraws` are the draw's smallest checked |minor| and
    re-draw count; `mag` holds the gain magnitudes (K_R x precoders).
    Gains must vanish (relatively) at ZF targets and stay generic at the
    destination and at interfering receivers; one violation per offending
    transmission, all symptoms attached.  Transmissions sharing a precoder
    share its ZF targets, so a transmission can offend only if its precoder
    leaks at a target or is quiet off its targets (destinations and
    interferers are off them); only those transmissions are examined one by
    one, and none on a clean channel.
    """
    gmax = mag.max(axis=0)
    at_targets = (mag * layout.targets).max(axis=0)  # 0 for a precoder without targets
    off_targets = np.where(layout.targets, np.inf, mag).min(axis=0)
    suspect = (at_targets > rel_tol * gmax) | (off_targets < GENERICITY_FLOOR * gmax)
    live = gmax > 0
    return PhyReport(
        seed=seed,
        checked=len(layout.rows),
        violations=_violations(layout, mag, gmax, np.flatnonzero(suspect[layout.rows]), rel_tol) if suspect.any() else (),
        ic_flagged=layout.ic_flagged,
        alignment_groups=layout.alignment_groups,
        # division by a positive gmax is monotone, so this is the largest |gain at a target| / gmax
        worst_leak=float(np.max(at_targets[live] / gmax[live], initial=0.0)),
        genericity_margin=smallest / GENERICITY_THRESHOLD,
        redraws=redraws,
    )


def _violations(layout: _Layout, mag: np.ndarray, gmax: np.ndarray, candidates: np.ndarray, rel_tol: float) -> tuple[str, ...]:
    """One violation per offending transmission among the `candidates` of `_check`, in transmission order.

    A candidate leaks at its precoder's loud ZF targets.  Its quiet gains are classified from its own
    run's sets: at the destination, or at an interfering receiver (no ZF target, no cache holder).
    """
    p = layout.rows[candidates]
    gains = mag[:, p].T  # candidates x K_R
    leak = layout.targets[:, p].T & (gains > rel_tol * gmax[p, None])
    quiet = gains < GENERICITY_FLOOR * gmax[p, None]
    violations = []
    for c in np.flatnonzero(leak.any(axis=1) | quiet.any(axis=1)):
        run = layout.run_of[candidates[c]]
        position, r = layout.runs[run]
        weak = np.flatnonzero(quiet[c]).tolist()
        issues = [
            f"zf-leak at rx {z + 1} (|gain|={gains[c, z]:.3e}, max {gmax[p[c]]:.3e})"
            for z in np.flatnonzero(leak[c])
        ]
        if r.dest in weak:
            issues.append(f"degenerate destination gain at rx {r.dest + 1}")
        interfering = [j for j in weak if j != r.dest and j not in r.zf_targets and j not in r.rx_set]
        issues += [f"degenerate interference gain at rx {j + 1}" for j in interfering]
        if issues:
            ts = r.tx_sets[candidates[c] - layout.starts[run]]
            violations.append(
                f"block={position + 1} subfile={SubfileId(r.file, ts, r.rx_set).label()} dest={r.dest + 1}: "
                + "; ".join(issues)
            )
    return tuple(violations)


def verify_plan_phy(
    cfg: NetworkConfig,
    plans: list[DeliveryPlan],
    channel_seeds: int | list[int],
    rel_tol: float = 1e-9,
) -> list[PhyReport]:
    """Monte-Carlo ZF verification of a list of plans (one plan, or tier plans in order) over seeded channels.

    One report per seed, covering every block of every plan.  `channel_seeds` is a
    non-negative int (seeds 0..n-1) or a list of non-negative int seeds (a bool is not one);
    `rel_tol` must lie in (0, 1).
    Before any channel is drawn, rules 4, 6 and 7 of `check_plan_file` raise its errors: an index outside
    `cfg` (ConfigurationError), then `Run.check` on every run, then `Run.check_zf` (MalformedPlanError).
    Channels are checked for genericity only up to the minor size the plans' precoders use
    (`_ZfPrecoders.minor_size`).  The draws come in the order an exhaustive check would take them,
    so the two pick different channels only where a minor that no ZF claim uses is degenerate.
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"relative ZF tolerance must lie in (0, 1), got {rel_tol}")
    if isinstance(channel_seeds, int) and (not _is_int(channel_seeds) or channel_seeds < 0):
        raise ValueError(f"channel seed count must be a non-negative int, got {channel_seeds!r}")
    seeds = list(range(channel_seeds)) if isinstance(channel_seeds, int) else list(channel_seeds)
    bad = [s for s in seeds if not (_is_int(s) and s >= 0)]
    if bad:
        raise ValueError(f"channel seeds must be non-negative ints, got {bad[0]!r}")
    if not seeds:
        return []
    _check_indices(cfg, plans)
    layout = _layout(tuple(block for p in plans for block in p.blocks), cfg.k_r, cfg.k_t)
    distinct = layout.precoders
    reports = []
    for seed in seeds:
        h, smallest, redraws, tables = _draw(cfg.k_r, cfg.k_t, seed, distinct.minor_size, distinct.sizes)
        weights, _ = distinct.weights(h, tables)
        del tables  # the weights are gathered; the tables would only raise the peak memory of the next draw
        # taken precoder-major, as h @ weights would sum each gain in another order, then laid out receiver-major
        mag = np.abs(weights.T @ h.T).T.copy()
        reports.append(_check(seed, smallest, redraws, layout, mag, rel_tol))
    return reports
