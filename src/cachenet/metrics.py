"""Closed-form sum-DoF and delivery-time evaluation, with an independent scheme oracle.

The closed-form expressions are implemented verbatim and, for the
decentralized delivery time, an oracle re-derives the value from the
delivery plans themselves (per-tier scheduled mass over per-tier ledger
sum-DoF).  The two are always reported side by side: for some parameter
ranges they disagree, and the reports expose that instead of adjudicating
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain

from .delivery import DeliveryPlan, build_decentralized_plan, plan_sdof
from .model import ConfigurationError, DemandVector, NetworkConfig, binomial, fmt_rational
from .placement import DecentralizedPlacement, _check_file_bits, check_corner, expected_fraction, place_decentralized, subset_profile

__all__ = [
    "DofReport",
    "NdtReport",
    "McNdt",
    "sdof_achievable",
    "sdof_baseline",
    "sdof_report",
    "ndt_closed_form",
    "ndt_centralized",
    "ndt_oracle",
    "ndt_finite",
    "mc_ndt",
    "ndt_report",
    "memory_share",
    "sweep_figure",
    "FIG2_TEMPLATE",
    "FIG4_TEMPLATE",
    "REFERENCE_EXAMPLE_CONFIG",
    "REFERENCE_EXAMPLE_REPORTED",
    "REFERENCE_EXAMPLE_INLINE",
]

# Reported values that circulate for the 3x3 worked example
# (K_T=K_R=N=3, M_T=2, M_R=1).  They disagree with each other and with
# direct evaluation of the closed form; reports surface all of them.
REFERENCE_EXAMPLE_CONFIG = (3, 3, 3, 2, 1)
REFERENCE_EXAMPLE_REPORTED = Fraction(147, 95)
REFERENCE_EXAMPLE_INLINE = Fraction(14, 9)


@dataclass(frozen=True)
class DofReport:
    """Sum-DoF of the ZF+IA+IC scheme next to the ZF+IC-only baseline."""

    proposed: Fraction
    baseline: Fraction
    per_user: Fraction
    capped: bool


@dataclass(frozen=True)
class McNdt:
    """Finite-file-size Monte-Carlo delivery time."""

    mean: float
    stderr: float
    values: tuple[Fraction, ...]
    file_bits: int
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class NdtReport:
    """Delivery time: closed form, scheme oracle and per-tier breakdown."""

    formula_value: Fraction
    oracle_value: Fraction
    tier_breakdown: tuple[tuple[int, Fraction], ...]
    flags: tuple[str, ...]


def sdof_achievable(cfg: NetworkConfig) -> Fraction:
    """Achievable sum-DoF of the ZF+IA+IC scheme at an integral corner point.

    min{ C(K_T,t_T) * K_R / (C(K_T,t_T) + K_R - t_T - t_R), K_R }: each
    receiver resolves its C(K_T,t_T) desired subfiles against the
    interference dimensions that ZF and cached content could not remove.
    """
    check_corner(cfg, "centralized")
    t_t, t_r = int(cfg.t_t), int(cfg.t_r)
    if t_t < 1:
        raise ConfigurationError("the scheme needs t_T >= 1 (every subfile at some transmitter)")
    c = binomial(cfg.k_t, t_t)
    denom = c + cfg.k_r - t_t - t_r
    # once t_T + t_R >= K_R all interference is removed and the cap binds;
    # past C + K_R the ratio itself is meaningless (denominator <= 0)
    if denom <= 0:
        return Fraction(cfg.k_r)
    return min(Fraction(c * cfg.k_r, denom), Fraction(cfg.k_r))


def sdof_baseline(cfg: NetworkConfig) -> Fraction:
    """Sum-DoF of the ZF+IC-only reference scheme: min{t_T + t_R, K_R}."""
    check_corner(cfg, "centralized")
    return Fraction(min(cfg.t_t + cfg.t_r, cfg.k_r))


def sdof_report(cfg: NetworkConfig) -> DofReport:
    """Both sum-DoF values; the proposed one is capped when it reaches K_R."""
    proposed = sdof_achievable(cfg)
    return DofReport(
        proposed=proposed,
        baseline=sdof_baseline(cfg),
        per_user=proposed / cfg.k_r,
        capped=proposed == cfg.k_r,
    )


def ndt_closed_form(cfg: NetworkConfig) -> Fraction:
    """Closed-form achievable delivery time for decentralized receiver caches.

    K_R * sum_{t=0}^{K_R-1} (C(K_R,t) - t) q^t (1-q)^{K_R-t}
                            / min{K_T K_R / (K_T + K_R - t_T - t), K_R}
    + K_R M_T / min{K_R, K_T K_R / (K_T + K_R - t_T)} * (max{M_R,1} - M_R),
    with q = M_R/N.  Evaluated verbatim; see ndt_oracle for the
    scheme-derived value it is checked against.
    """
    check_corner(cfg, "decentralized")
    t_t = int(cfg.t_t)
    q = cfg.m_r / cfg.n_files
    total = Fraction(0)
    for t in range(cfg.k_r):
        mass = (binomial(cfg.k_r, t) - t) * q**t * (1 - q) ** (cfg.k_r - t)
        sdof_t = min(Fraction(cfg.k_t * cfg.k_r, cfg.k_t + cfg.k_r - t_t - t), Fraction(cfg.k_r))
        total += mass / sdof_t
    total *= cfg.k_r
    sdof_0 = min(Fraction(cfg.k_r), Fraction(cfg.k_t * cfg.k_r, cfg.k_t + cfg.k_r - t_t))
    total += Fraction(cfg.k_r) * cfg.m_t / sdof_0 * (max(cfg.m_r, Fraction(1)) - cfg.m_r)
    return total


def ndt_centralized(cfg: NetworkConfig) -> Fraction:
    """Delivery time of a centralized corner point: non-cached demand over the baseline sum-DoF.

    K_R * (1 - M_R/N) / min{t_T + t_R, K_R}.  This conversion exists to
    compare against the decentralized curve; it is bookkeeping, not a
    separate scheme.
    """
    # t_T + t_R >= 1 in every feasible configuration, so the sum-DoF is never 0
    return cfg.k_r * (1 - cfg.m_r / cfg.n_files) / sdof_baseline(cfg)


def _tier_fractions(cfg: NetworkConfig, plans: list[DeliveryPlan]) -> list[Fraction]:
    """Expected scheduled mass of each tier plan, in file units (exact, asymptotic).

    An entry's expected mass depends only on its caching weight |rx_set|,
    so each plan's entries are counted by weight, a run at a time, and
    `expected_fraction` is evaluated once per weight:
    n_w * (1/C(K_T,t_T)) * expected_fraction(w).
    """
    per_partition = Fraction(1, binomial(cfg.k_t, int(cfg.t_t)))
    out = []
    for plan in plans:
        weights: dict[int, int] = {}
        for block in plan.blocks:
            for r in block.runs:
                weights[len(r.rx_set)] = weights.get(len(r.rx_set), 0) + len(r.tx_sets)
        mass = sum((n * expected_fraction(cfg, w) for w, n in weights.items()), Fraction(0))
        out.append(per_partition * mass)
    return out


def _per_tier(cfg: NetworkConfig, plans: list[DeliveryPlan], masses: list[Fraction]) -> tuple[list[Fraction], Fraction]:
    """Each tier's mass over its ledger sum-DoF, 0 for a tier with no blocks, and their sum."""
    terms = [mass / plan_sdof(cfg, plan) if plan.blocks else Fraction(0) for plan, mass in zip(plans, masses)]
    return terms, sum(terms, Fraction(0))


def ndt_oracle(
    cfg: NetworkConfig, demand: DemandVector | None = None
) -> tuple[Fraction, tuple[tuple[int, Fraction], ...]]:
    """Scheme-derived asymptotic delivery time: per tier, scheduled mass over ledger sum-DoF.

    Returns the total and the per-tier contributions.  Independent of the
    closed form: the sum-DoF comes from accounting the actual tier plans,
    which are complete by construction.
    """
    if demand is None:
        demand = DemandVector.worst_case(cfg)
    plans = build_decentralized_plan(cfg, demand)
    terms, total = _per_tier(cfg, plans, _tier_fractions(cfg, plans))
    return total, tuple(enumerate(terms))


def ndt_finite(placement: DecentralizedPlacement, plans: list[DeliveryPlan]) -> Fraction:
    """Delivery time of one finite-size placement: actual scheduled bits over tier sum-DoF.

    The network and F are the placement's own.  Each run must send its class
    over the whole transmitter partition, as built tier plans do; it then
    schedules every bit of its file cached by exactly its receiver set, one
    entry of the file's `subset_profile`.  A run over part of the partition
    raises ValueError.  Only the files the plans' runs name are profiled.
    """
    cfg, t_t = placement.cfg, int(placement.cfg.t_t)
    runs = [[r for _, r in plan.runs()] for plan in plans]
    n_sets, every, checked = binomial(cfg.k_t, t_t), frozenset(range(cfg.k_t)), set()
    for r in chain.from_iterable(runs):
        # the runs of built plans share one tuple, so it is checked once; `runs` keeps each id alive
        if id(r.tx_sets) in checked:
            continue
        if not len(r.tx_sets) == len(set(r.tx_sets)) == n_sets or not all(len(ts) == t_t and ts <= every for ts in r.tx_sets):
            raise ValueError(
                f"a run of file {r.file + 1} to receiver {r.dest + 1} lists {len(r.tx_sets)} transmitter sets, "
                f"not the whole partition of C({cfg.k_t},{t_t}) = {n_sets}"
            )
        checked.add(id(r.tx_sets))
    profiles = {f: subset_profile(placement, f) for f in sorted({r.file for r in chain.from_iterable(runs)})}
    masses = [
        Fraction(sum(profiles[r.file][sum(1 << j for j in r.rx_set)] for r in plan_runs), placement.file_bits)
        for plan_runs in runs
    ]
    return _per_tier(cfg, plans, masses)[1]


def mc_ndt(cfg: NetworkConfig, demand: DemandVector, file_bits: int, seeds: list[int]) -> McNdt:
    """Monte-Carlo delivery time over independently seeded placements of `file_bits`-bit files, F checked first."""
    if not seeds:
        raise ValueError("need at least one seed")
    _check_file_bits(file_bits)
    plans = build_decentralized_plan(cfg, demand)
    values = []
    for seed in seeds:
        # no reference outlives the call, so one N x F receiver-code array is alive at a time
        values.append(ndt_finite(place_decentralized(cfg, file_bits, seed), plans))
    floats = [float(v) for v in values]
    mean = sum(floats) / len(floats)
    if len(floats) > 1:
        var = sum((v - mean) ** 2 for v in floats) / (len(floats) - 1)
        stderr = math.sqrt(var / len(floats))
    else:
        stderr = float("nan")
    return McNdt(
        mean=mean, stderr=stderr, values=tuple(values), file_bits=file_bits, seeds=tuple(seeds)
    )


def ndt_report(cfg: NetworkConfig, demand: DemandVector | None = None) -> NdtReport:
    """Side-by-side delivery-time report; never hides a closed-form/oracle mismatch."""
    if demand is None:
        demand = DemandVector.worst_case(cfg)
    formula = ndt_closed_form(cfg)
    oracle, breakdown = ndt_oracle(cfg, demand=demand)
    flags = []
    if formula != oracle:
        flags.append(
            f"closed-form value {fmt_rational(formula)} differs from scheme accounting "
            f"{fmt_rational(oracle)}; the scheme accounting is the reference"
        )
    key = (cfg.k_t, cfg.k_r, cfg.n_files, cfg.m_t, cfg.m_r)
    if key == REFERENCE_EXAMPLE_CONFIG:
        flags.append(
            f"reported example value {fmt_rational(REFERENCE_EXAMPLE_REPORTED)} for this "
            f"configuration is inconsistent with its own inline accounting "
            f"({fmt_rational(REFERENCE_EXAMPLE_INLINE)}) and with the closed form "
            f"({fmt_rational(formula)}); flagged, not adopted"
        )
    return NdtReport(
        formula_value=formula,
        oracle_value=oracle,
        tier_breakdown=breakdown,
        flags=tuple(flags),
    )


def memory_share(points: list[tuple[Fraction, Fraction]], m_query: Fraction) -> Fraction:
    """Value on the lower convex envelope of (memory, value) corner points.

    Time-sharing between two operating points achieves any convex
    combination, so the envelope is what a scheme mixing corners attains;
    dominated corners are skipped.
    """
    if len(points) < 2:
        raise ValueError("memory sharing needs at least two corner points")
    best: dict[Fraction, Fraction] = {}
    for m, v in points:
        m, v = Fraction(m), Fraction(v)
        if m not in best or v < best[m]:
            best[m] = v
    if len(best) < 2:
        raise ValueError("memory sharing needs at least two distinct memory values")
    pts = sorted(best.items())
    if not pts[0][0] <= m_query <= pts[-1][0]:
        raise ValueError(f"query {m_query} outside corner range [{pts[0][0]}, {pts[-1][0]}]")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it sits on or above the chord
            if (y2 - y1) * (p[0] - x2) >= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= m_query <= x2:
            return y1 + (y2 - y1) * (m_query - x1) / (x2 - x1)
    raise AssertionError("query inside range but no hull segment found")


FIG2_TEMPLATE = dict(k_t=4, k_r=4, n_files=4, m_t=2)
FIG4_TEMPLATE = dict(k_t=3, k_r=3, n_files=3, m_t=2)


def _corner_points(template: NetworkConfig, metric) -> list[tuple[Fraction, Fraction]]:
    """Evaluate `metric` at every integral-t_R receiver-memory corner."""
    corners = [Fraction(t_r * template.n_files, template.k_r) for t_r in range(template.k_r + 1)]
    return [(m_r, metric(replace(template, m_r=m_r))) for m_r in corners]


def sweep_figure(template: NetworkConfig, figure: str) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Rows (M_R, proposed-scheme metric, reference metric) at M_R = 0..N for the comparison figures.

    fig2 plots 1/sDoF (convex, so corners memory-share); fig4 plots the
    decentralized delivery time against the centralized reference.  Rows
    between corners are filled by memory-sharing.
    """
    values = [Fraction(i) for i in range(template.n_files + 1)]
    if figure == "fig2":
        proposed = _corner_points(template, lambda c: 1 / sdof_achievable(c))
        reference = _corner_points(template, lambda c: 1 / sdof_baseline(c))
        rows = [
            (m, memory_share(proposed, m), memory_share(reference, m)) for m in values
        ]
    elif figure == "fig4":
        reference = _corner_points(template, ndt_centralized)
        rows = [(m, ndt_closed_form(replace(template, m_r=m)), memory_share(reference, m)) for m in values]
    else:
        raise ValueError(f"unknown figure {figure!r} (expected 'fig2' or 'fig4')")
    return rows
