"""Shared domain types: network configuration, exact rationals, subset combinatorics.

All indices (transmitters, receivers, files) are 0-based internally.
Text output uses 1-based indices; the conversion lives entirely in the
formatting helpers at the bottom of this module.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "ConfigurationError",
    "NetworkConfig",
    "DemandVector",
    "SubfileId",
    "binomial",
    "subsets",
    "fmt_rational",
    "fmt_decimal",
    "fmt_index_set",
    "parse_index_set",
]


class ConfigurationError(ValueError):
    """Raised for invalid or infeasible network / run configurations."""


def _as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, bool):
        raise ConfigurationError(f"expected a number, got {value!r}")
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    raise ConfigurationError(f"expected an exact number, got {type(value).__name__}")


def _is_int(value: object) -> bool:
    """True for ints; bools are ints in Python but never a count or an index here."""
    return isinstance(value, int) and not isinstance(value, bool)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; rejects k outside [0, n]."""
    if k < 0 or k > n:
        raise ValueError(f"binomial({n}, {k}) is outside the domain 0 <= k <= n")
    return math.comb(n, k)


def subsets(ground: int, size: int) -> tuple[tuple[int, ...], ...]:
    """All size-`size` subsets of range(ground), lexicographically ordered.

    The ordering is load-bearing: placements, delivery plans and their
    serializations all inherit determinism from it.
    """
    if size < 0 or size > ground:
        raise ValueError(f"subset size {size} is outside [0, {ground}]")
    return tuple(itertools.combinations(range(ground), size))


@dataclass(frozen=True)
class NetworkConfig:
    """The paper's network tuple (K_T, K_R, N, M_T, M_R) plus derived cache replication factors.

    Cache sizes are in file units and may be fractional; formula evaluators
    that require integral replication factors reject such configs explicitly.
    The file length F is no part of it: only a decentralized placement draw reads F.
    """

    k_t: int
    k_r: int
    n_files: int
    m_t: Fraction
    m_r: Fraction

    def __post_init__(self) -> None:
        for name in ("k_t", "k_r", "n_files"):
            if not _is_int(getattr(self, name)) or getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1")
        object.__setattr__(self, "m_t", _as_fraction(self.m_t))
        object.__setattr__(self, "m_r", _as_fraction(self.m_r))
        if self.m_t < 0 or self.m_r < 0:
            raise ConfigurationError("cache sizes must be nonnegative")
        # Caching more than the library is clamped to the library.
        object.__setattr__(self, "m_t", min(self.m_t, Fraction(self.n_files)))
        object.__setattr__(self, "m_r", min(self.m_r, Fraction(self.n_files)))
        if self.k_t * self.m_t + self.m_r < self.n_files:
            raise ConfigurationError(
                f"infeasible caches: K_T*M_T + M_R = {self.k_t * self.m_t + self.m_r} "
                f"< N = {self.n_files}; transmitters cannot collaboratively cover the library"
            )

    # derived once per config (the fields are frozen); kept out of eq, hash and repr
    @cached_property
    def t_t(self) -> Fraction:
        return Fraction(self.k_t) * self.m_t / self.n_files

    @cached_property
    def t_r(self) -> Fraction:
        return Fraction(self.k_r) * self.m_r / self.n_files

    @property
    def t_t_integral(self) -> bool:
        return self.t_t.denominator == 1

    @property
    def t_r_integral(self) -> bool:
        return self.t_r.denominator == 1


class SubfileId(NamedTuple):
    """One piece of a file, labelled by where it was cached.

    `tx_set` is the transmitter subset holding it, `rx_set` the receiver
    subset that cached it (empty when no receiver did).  A plain tuple of
    those three fields: it hashes and compares like one.
    """

    file: int
    tx_set: frozenset[int]
    rx_set: frozenset[int]

    def label(self) -> str:
        """Display label with 1-based indices, e.g. 'W1[tx=12 rx=2]'."""
        return (
            f"W{self.file + 1}"
            f"[tx={''.join(str(i + 1) for i in sorted(self.tx_set))}"
            f" rx={''.join(str(j + 1) for j in sorted(self.rx_set)) or '-'}]"
        )


@dataclass(frozen=True)
class DemandVector:
    """Per-receiver file requests (0-based file indices)."""

    d: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(self.d))

    @classmethod
    def worst_case(cls, cfg: NetworkConfig) -> "DemandVector":
        """Receiver j requests file j mod N; all-distinct whenever K_R <= N."""
        return cls(tuple(j % cfg.n_files for j in range(cfg.k_r)))

    def validate(self, cfg: NetworkConfig) -> None:
        if len(self.d) != cfg.k_r:
            raise ConfigurationError(f"demand vector has {len(self.d)} entries, expected {cfg.k_r}")
        for f in self.d:
            if not _is_int(f) or not 0 <= f < cfg.n_files:
                raise ConfigurationError(f"demanded file {f + 1 if _is_int(f) else repr(f)} outside 1..{cfg.n_files}")


# -- formatting boundary: 1-based display ---------------------------------

def fmt_rational(x: Fraction) -> str:
    """'24/7' or '3' for integral values."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_decimal(x: Fraction | float) -> str:
    return f"{float(x):.12g}"


def fmt_index_set(s: frozenset[int] | tuple[int, ...]) -> str:
    """'{1,3}' with 1-based sorted indices; '{}' for the empty set."""
    return "{" + ",".join(str(i + 1) for i in sorted(s)) + "}"


_SET_RE = re.compile(r"\{([0-9]+(?:,[0-9]+)*)?\}")


def parse_index_set(text: str) -> frozenset[int]:
    """Inverse of fmt_index_set: '{1,3}' -> {0, 2}; empty, repeated and below-1 indices are rejected."""
    m = _SET_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"malformed index set {text!r}")
    tokens = m.group(1).split(",") if m.group(1) else []
    indices = frozenset(int(tok) - 1 for tok in tokens)
    if indices and min(indices) < 0:
        raise ValueError(f"index set {text!r} has an index below 1")
    if len(indices) != len(tokens):
        raise ValueError(f"index set {text!r} repeats an index")
    return indices
