"""Cache placement: deterministic subfile splitting and random receiver caches.

Centralized placement splits every file into C(K_T,t_T)*C(K_R,t_R) equal
subfiles indexed by (transmitter subset, receiver subset).  Decentralized
placement keeps the deterministic transmitter partitioning but lets every
receiver cache a uniformly random fixed-size subset of each file's F bits;
F is an input of that draw alone, and the placement reads it off its codes.
Its draws stay in the caller's thread in stream order, so they fix the
caches per seed; marking each draw into the codes runs one draw behind in a
one-worker executor.  `subset_profile` counts a file's bits by receiver
code over the whole file: the tier plans send each class over every
transmitter partition, so the finite-F delivery time needs no split by
partition.  Only the decentralized functions use numpy, and each imports it
where it runs, so the exact commands never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .model import (
    ConfigurationError,
    NetworkConfig,
    SubfileId,
    _is_int,
    binomial,
    fmt_index_set,
    subsets,
)

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

__all__ = [
    "CentralizedPlacement",
    "DecentralizedPlacement",
    "place_centralized",
    "place_decentralized",
    "subset_profile",
    "expected_fraction",
    "check_corner",
    "tx_partition",
    "MODES",
    "RNG_ALGORITHM",
]

# Recorded in exports so runs can be reproduced bit-exactly.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"

MODES = ("centralized", "decentralized")

# `plan --show` lists at most this many cached bit ranges per receiver and file.
MAX_RANGES = 8

# The most transmitter sets `tx_partition` builds: C(22,11) = 705,432 fit, C(34,17) do not.
MAX_TX_SETS = 10**6


def check_corner(cfg: NetworkConfig, mode: str) -> None:
    """Reject a mode other than MODES, or a corner its placement cannot split.

    Both placements split files over transmitter sets of size t_T; the
    centralized one also over receiver sets of size t_R.  Plans and checks
    of a mode need the same integral factors as its placement.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown placement mode {mode!r} (expected {' or '.join(MODES)})")
    if mode == "centralized" and not (cfg.t_t_integral and cfg.t_r_integral):
        raise ConfigurationError(
            f"centralized placement needs integral replication factors, got "
            f"t_T={cfg.t_t}, t_R={cfg.t_r}; use memory-sharing between integral corners"
        )
    if not cfg.t_t_integral:
        raise ConfigurationError(f"decentralized placement needs integral t_T, got {cfg.t_t}")


def tx_partition(cfg: NetworkConfig) -> tuple[frozenset[int], ...]:
    """The C(K_T,t_T) transmitter sets every file is split by, in `subsets` order; refused unbuilt past MAX_TX_SETS."""
    check_corner(cfg, "decentralized")
    n_sets = binomial(cfg.k_t, int(cfg.t_t))
    if n_sets > MAX_TX_SETS:
        raise ConfigurationError(
            f"C({cfg.k_t},{int(cfg.t_t)}) = {n_sets} transmitter sets exceed the bound of {MAX_TX_SETS}"
        )
    return tuple(map(frozenset, subsets(cfg.k_t, int(cfg.t_t))))


@dataclass(frozen=True)
class CentralizedPlacement:
    """Deterministic subfile placement for integral replication factors.

    Only `cfg` is stored; `place_centralized` checks that it is integral.
    Delivery plans follow from `cfg` alone, so the per-node listings are
    built only when `export_text` prints them.
    """

    cfg: NetworkConfig

    def export_text(self) -> str:
        """Per-node listing of cached subfiles (stable order): each transmitter, then each receiver."""
        cfg = self.cfg
        at_tx: list[list[str]] = [[] for _ in range(cfg.k_t)]
        at_rx: list[list[str]] = [[] for _ in range(cfg.k_r)]
        tx_sets, rx_sets = tx_partition(cfg), tuple(map(frozenset, subsets(cfg.k_r, int(cfg.t_r))))
        for f in range(cfg.n_files):
            for ts in tx_sets:
                for rs in rx_sets:
                    label = SubfileId(f, ts, rs).label()
                    for i in ts:
                        at_tx[i].append(label)
                    for j in rs:
                        at_rx[j].append(label)
        lines = [f"# centralized placement kt={cfg.k_t} kr={cfg.k_r} n={cfg.n_files}"]
        lines += [f"tx {i + 1}: " + " ".join(sorted(names)) for i, names in enumerate(at_tx)]
        lines += [f"rx {j + 1}: " + " ".join(sorted(names)) for j, names in enumerate(at_rx)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DecentralizedPlacement:
    """Random receiver caches over a deterministic transmitter partitioning.

    `rx_codes[f, b]` is the receiver code of bit b of file f: bit j is set
    when receiver j cached it.  This read-only N x F array, of the narrowest
    unsigned type holding K_R bits, is the only stored form of the caches,
    and its width is the file length F.  Transmitter partition p holds bits
    [p * partition_size, (p + 1) * partition_size) cut at F, so only the
    last ones can come out short or empty.
    """

    cfg: NetworkConfig
    seed: int
    rx_codes: np.ndarray = field(repr=False)

    @property
    def rx_mask(self) -> np.ndarray:
        """`rx_mask[j, f, b]` is True when receiver j cached bit b of file f; built anew on each access."""
        import numpy as np

        shifts = np.arange(self.cfg.k_r, dtype=self.rx_codes.dtype)[:, None, None]
        return (self.rx_codes >> shifts & 1).astype(bool)

    @property
    def file_bits(self) -> int:
        return self.rx_codes.shape[1]

    @property
    def partition_size(self) -> int:
        return -(-self.file_bits // binomial(self.cfg.k_t, int(self.cfg.t_t)))

    def cached_bits(self, rx: int, file: int) -> np.ndarray:
        """Sorted bit indices cached by `rx` for `file`."""
        import numpy as np

        return np.flatnonzero(self.rx_codes[file] >> rx & 1)

    def export_text(self) -> str:
        """Per-(receiver, file) listing of cached bit-index ranges, at most MAX_RANGES each."""
        lines = [
            f"# decentralized placement kt={self.cfg.k_t} kr={self.cfg.k_r} "
            f"n={self.cfg.n_files} file_bits={self.file_bits} seed={self.seed} rng={RNG_ALGORITHM}"
        ]
        f_bits, psize = self.file_bits, self.partition_size
        for p, ts in enumerate(tx_partition(self.cfg)):
            lo, hi = p * psize, min((p + 1) * psize, f_bits)
            lines.append(f"tx-partition {fmt_index_set(ts)}: " + (f"bits {_span(lo, hi - 1)}" if lo < f_bits else "no bits"))
        for j in range(self.cfg.k_r):
            for f in range(self.cfg.n_files):
                ranges = _as_ranges(self.cached_bits(j, f))
                if len(ranges) > MAX_RANGES:
                    shown = ",".join(ranges[:MAX_RANGES]) + f",...({len(ranges)} ranges)"
                else:
                    shown = ",".join(ranges)
                lines.append(f"rx {j + 1} file {f + 1}: {shown}")
        return "\n".join(lines) + "\n"


def _span(first: int, last: int) -> str:
    """An inclusive bit range as a listing prints it: `first`, or `first-last` when it holds several bits."""
    return f"{first}" if first == last else f"{first}-{last}"


def _as_ranges(indices: np.ndarray) -> list[str]:
    import numpy as np

    if indices.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(indices) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [indices.size - 1]))
    return [_span(indices[s], indices[e]) for s, e in zip(starts, ends)]


def place_centralized(cfg: NetworkConfig) -> CentralizedPlacement:
    """Split every file and assign subfiles to the caches that index them.

    Requires integral t_T and t_R; fractional operating points are reached
    by memory-sharing between integral corners instead (see metrics.memory_share).
    """
    check_corner(cfg, "centralized")
    return CentralizedPlacement(cfg)


def _check_file_bits(file_bits: int) -> None:
    """The one rule for a file length F: a positive int (not a bool), wherever a placement is drawn."""
    if not _is_int(file_bits) or file_bits < 1:
        raise ConfigurationError("file_bits must be a positive integer")


def place_decentralized(cfg: NetworkConfig, file_bits: int, seed: int) -> DecentralizedPlacement:
    """Sample receiver caches of `file_bits`-bit files: floor(M_R*F/N) bits per file, uniform without replacement.

    Deterministic given `seed`.
    """
    import numpy as np

    check_corner(cfg, "decentralized")
    _check_file_bits(file_bits)
    per_file = int(cfg.m_r * file_bits / cfg.n_files)  # floor
    rng = np.random.default_rng(seed)
    codes = np.zeros((cfg.n_files, file_bits), dtype=np.min_scalar_type(2**cfg.k_r - 1))
    _mark_one_behind(
        (row, 1 << j, rng.choice(file_bits, size=per_file, replace=False)) for j in range(cfg.k_r) for row in codes
    )
    codes.setflags(write=False)
    return DecentralizedPlacement(cfg=cfg, seed=seed, rx_codes=codes)


def _mark_one_behind(draws: Iterable[tuple[np.ndarray, int, np.ndarray]]) -> None:
    """OR each drawn `(row, bit, picked)` into `row[picked]` in a one-worker executor while the next is drawn.

    `draws` is consumed in the calling thread, so the draws keep their order.
    Each is submitted once the previous one is marked, and the caller keeps
    none it has submitted.  The `with` block joins the worker; `result()` raises
    here what the marking raised.  Draws are without replacement, so the OR sets each bit once.
    """
    from concurrent.futures import ThreadPoolExecutor

    def mark(row: np.ndarray, bit: int, picked: np.ndarray) -> None:
        row[picked] |= bit

    marked = None
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="cachenet-mark") as marker:
        for draw in draws:
            if marked is not None:
                marked.result()
            marked = marker.submit(mark, *draw)
            del draw
        if marked is not None:
            marked.result()


def subset_profile(placement: DecentralizedPlacement, file: int) -> list[int]:
    """Bit counts of `file` by receiver code: entry c counts the bits cached by exactly the receivers set in c.

    The 2^K_R counts sum to F and are taken over the whole file, not per
    transmitter partition.  One-byte codes are counted in pairs: one
    `bincount` of the row read as 16-bit words, folded over both bytes of
    the word, plus the odd last bit.  Wider codes take a plain `bincount`.
    """
    import numpy as np

    cfg = placement.cfg
    if not 0 <= file < cfg.n_files:
        raise ValueError(f"file index {file} outside [0, {cfg.n_files})")
    row = placement.rx_codes[file]
    if row.dtype != np.uint8:
        return np.bincount(row, minlength=1 << cfg.k_r).tolist()
    pairs = np.bincount(row[: row.size & ~1].view(np.uint16), minlength=1 << 16).reshape(256, 256)
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    if row.size & 1:
        counts[row[-1]] += 1
    return counts[: 1 << cfg.k_r].tolist()


def expected_fraction(cfg: NetworkConfig, t: int) -> Fraction:
    """Asymptotic fraction of a file cached by one particular set of t receivers.

    (M_R/N)^t * (1 - M_R/N)^(K_R - t), exact.  Multiply by C(K_R,t) for the
    total mass at caching weight t, and by 1/C(K_T,t_T) for a single
    transmitter partition.
    """
    if not 0 <= t <= cfg.k_r:
        raise ValueError(f"caching weight {t} outside [0, {cfg.k_r}]")
    q = cfg.m_r / cfg.n_files
    return q**t * (1 - q) ** (cfg.k_r - t)
