"""Command-line interface: metrics, plan generation/verification, figure CSV export.

Every command is deterministic given its flags and seeds; reruns produce
byte-identical output.  Exit status 0 means no verification failure and no
configuration error; verification failures exit 1, usage and configuration
errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .delivery import (
    DeliveryPlan,
    SubspaceLedger,
    account_plan,
    build_centralized_plan,
    build_decentralized_plan,
    common_sdof,
    parse_plans,
    serialize_plan,
    verify_completeness,
)
from .metrics import (
    FIG2_TEMPLATE,
    FIG4_TEMPLATE,
    mc_ndt,
    ndt_oracle,
    ndt_report,
    sdof_report,
    sweep_figure,
)
from .model import ConfigurationError, DemandVector, NetworkConfig, as_fraction, fmt_decimal, fmt_rational
from .phy import IA_ASSUMPTION_NOTE, verify_plan_phy
from .placement import CentralizedPlacement, DecentralizedPlacement, place_centralized, place_decentralized

__all__ = ["main"]

_CONFIG_KEYS = ("kt", "kr", "n", "mt", "mr", "file_bits", "seed", "mode", "demand")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Flags override config-file values; fill unset flags from the file."""
    if getattr(args, "config", None):
        casts = {"kt": int, "kr": int, "n": int, "file_bits": int, "seed": int}
        for key, value in _read_config_file(args.config).items():
            if getattr(args, key, None) is None:
                setattr(args, key, casts.get(key, str)(value))
    if getattr(args, "seed", None) is None:
        args.seed = 1
    if hasattr(args, "mode") and args.mode is None:
        args.mode = "centralized"


def _network(args: argparse.Namespace, parser: argparse.ArgumentParser) -> NetworkConfig:
    missing = [flag for flag in ("kt", "kr", "n", "mt", "mr") if getattr(args, flag, None) is None]
    if missing:
        parser.error("missing required network parameters: " + ", ".join(f"--{m}" for m in missing))
    return NetworkConfig(
        k_t=args.kt,
        k_r=args.kr,
        n_files=args.n,
        m_t=as_fraction(args.mt),
        m_r=as_fraction(args.mr),
        file_bits=getattr(args, "file_bits", None),
    )


def _demand(args: argparse.Namespace, cfg: NetworkConfig) -> DemandVector:
    if getattr(args, "demand", None):
        entries = tuple(int(tok) - 1 for tok in str(args.demand).split(","))
        demand = DemandVector(entries)
    else:
        demand = DemandVector.worst_case(cfg)
    demand.validate(cfg)
    return demand


def _rat(x: Fraction) -> str:
    return f"{fmt_rational(x)} ({fmt_decimal(x)})"


def cmd_sdof(args, parser) -> int:
    cfg = _network(args, parser)
    report = sdof_report(cfg)
    print(
        f"proposed={_rat(report.proposed)} baseline={_rat(report.baseline)} "
        f"per_user={fmt_rational(report.per_user)} capped={'true' if report.capped else 'false'}"
    )
    return 0


def _mc_seeds(cfg: NetworkConfig, args) -> list[int] | None:
    if args.seeds and cfg.file_bits is None:
        raise ConfigurationError("--seeds needs --file-bits for finite-size runs")
    return list(range(args.seed, args.seed + args.seeds)) if args.seeds else None


def _print_ndt(oracle: Fraction, breakdown, flags, mc) -> int:
    """The oracle, its tiers, any flags and any Monte-Carlo line, as `ndt` and `oracle-ndt` print them."""
    print(f"oracle={_rat(oracle)}")
    for t, contribution in breakdown:
        print(f"tier t={t}: {_rat(contribution)}")
    for flag in flags:
        print(f"flag: {flag}")
    if mc is not None:
        print(f"mc={mc.mean:.9f} stderr={mc.stderr:.3e} file_bits={mc.file_bits} seeds={len(mc.seeds)}")
    return 0


def cmd_ndt(args, parser) -> int:
    cfg = _network(args, parser)
    report = ndt_report(cfg, demand=_demand(args, cfg), seeds=_mc_seeds(cfg, args))
    print(f"formula={_rat(report.formula_value)}")
    return _print_ndt(report.oracle_value, report.tier_breakdown, report.flags, report.mc)


def cmd_oracle_ndt(args, parser) -> int:
    cfg = _network(args, parser)
    demand = _demand(args, cfg)
    seeds = _mc_seeds(cfg, args)
    return _print_ndt(*ndt_oracle(cfg, demand=demand), (), mc_ndt(cfg, demand, seeds) if seeds else None)


def _build_plans(cfg: NetworkConfig, args, demand: DemandVector):
    if args.mode == "centralized":
        placement = place_centralized(cfg)
        plans = [build_centralized_plan(cfg, placement, demand)]
    else:
        if cfg.file_bits is None:
            raise ConfigurationError("decentralized mode needs --file-bits")
        placement = place_decentralized(cfg, args.seed)
        plans = build_decentralized_plan(cfg, placement, demand)
    return placement, plans


def _print_ledgers(cfg: NetworkConfig, plan: DeliveryPlan) -> list[SubspaceLedger]:
    ledgers = account_plan(cfg, plan)
    for b, ledger in enumerate(ledgers):
        dofs = sorted({r.dof for r in ledger.receivers})
        shape = "uniform" if ledger.uniform else "NON-UNIFORM"
        first = ledger.receivers[0]
        print(
            f"ledger {plan.mode} block={b + 1}: per-user DoF "
            f"{'/'.join(fmt_rational(d) for d in dofs)}, desired={first.desired} "
            f"aligned={first.aligned_dims} dims={first.total_dims} ({shape})"
        )
    if plan.blocks:
        print(f"{plan.mode} sDoF={_rat(common_sdof(ledgers))}")
    else:
        print(f"{plan.mode}: empty plan (everything cached)")
    return ledgers


def cmd_plan(args, parser) -> int:
    cfg = _network(args, parser)
    demand = _demand(args, cfg)
    placement, plans = _build_plans(cfg, args, demand)
    text = "".join(serialize_plan(p) for p in plans)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({sum(len(b) for p in plans for b in p.blocks)} scheduled subfiles)")
    else:
        sys.stdout.write(text)
    if args.show:
        sys.stdout.write(placement.export_text() if args.mode == "centralized" else placement.export_text(max_ranges=8))
    ledgers = [_print_ledgers(cfg, plan) for plan in plans]
    if args.verify:
        return _verify(cfg, plans, placement, demand, args, ledgers)
    return 0


def _verify(
    cfg: NetworkConfig,
    plans: list[DeliveryPlan],
    placement: CentralizedPlacement | DecentralizedPlacement,
    demand: DemandVector,
    args,
    ledgers: list[list[SubspaceLedger]],
) -> int:
    failures = 0
    completeness = verify_completeness(cfg, plans, placement, demand)
    print(f"completeness: {completeness.summary()}")
    if not completeness.complete:
        failures += 1
        for dest, sub in completeness.missing[:10]:
            print(f"  missing for rx {dest + 1}: {sub.label()}")
        for dest, sub in completeness.duplicated[:10]:
            print(f"  duplicated for rx {dest + 1}: {sub.label()}")
        for dest, sub in completeness.extraneous[:10]:
            print(f"  extraneous for rx {dest + 1}: {sub.label()}")
    for plan, plan_ledgers in zip(plans, ledgers):
        for b, ledger in enumerate(plan_ledgers):
            if not ledger.uniform:
                print(
                    f"warning: {plan.mode} block={b + 1} has a non-uniform ledger; "
                    f"accepted, but the schedule is not the rotation-generated one"
                )
    reports = verify_plan_phy(cfg, plans, channel_seeds=args.channel_seeds, rel_tol=args.tol)
    bad = [r for r in reports if not r.ok]
    total_checked = sum(r.checked for r in reports)
    print(
        f"phy: {total_checked} transmissions checked over {len(reports)} channels, "
        f"{sum(len(r.violations) for r in reports)} violations; {IA_ASSUMPTION_NOTE}"
    )
    for r in bad[:5]:
        for v in r.violations[:10]:
            print(f"  seed={r.seed}: {v}")
    failures += len(bad)
    return 1 if failures else 0


def cmd_verify(args, parser) -> int:
    cfg = _network(args, parser)
    text = Path(args.plan_file).read_text() if args.plan_file else sys.stdin.read()
    # a serialized decentralized run concatenates one plan per tier
    plans = parse_plans(text)
    if any(p.mode.startswith("decentralized") for p in plans):
        args.mode = "decentralized"
    tx_range = frozenset(range(cfg.k_t))
    for p in plans:
        for position, r in p.runs():
            # a run's entries differ only in tx, so past its first entry only tx can be out of range
            for i, ts in enumerate(r.tx_sets):
                if i == 0 or not ts <= tx_range:
                    r.entry(ts, position).check_indices(cfg)
    demand = _infer_demand(cfg, plans, args)
    try:
        # check() reads only the label, which a run's entries share
        for p in plans:
            for position, r in p.runs():
                r.entry(r.tx_sets[0], position).check()
    except ConfigurationError as exc:
        print(f"malformed plan: {exc}")
        return 1
    placement = (
        place_centralized(cfg)
        if args.mode == "centralized"
        else place_decentralized(cfg, args.seed)
    )
    return _verify(cfg, plans, placement, demand, args, [account_plan(cfg, p) for p in plans])


def _infer_demand(cfg: NetworkConfig, plans: list[DeliveryPlan], args) -> DemandVector:
    if getattr(args, "demand", None):
        return _demand(args, cfg)
    files: dict[int, int] = {}
    for p in plans:
        for _, r in p.runs():
            if files.setdefault(r.dest, r.file) != r.file:
                raise ConfigurationError(
                    f"plan schedules several files for rx {r.dest + 1}; pass --demand explicitly"
                )
    d = tuple(files.get(j, j % cfg.n_files) for j in range(cfg.k_r))
    return DemandVector(d)


def cmd_sweep(args, parser) -> int:
    template_defaults = FIG2_TEMPLATE if args.figure == "fig2" else FIG4_TEMPLATE
    for key, attr in (("k_t", "kt"), ("k_r", "kr"), ("n_files", "n"), ("m_t", "mt")):
        if getattr(args, attr, None) is None:
            setattr(args, attr, template_defaults[key])
    cfg = NetworkConfig(
        k_t=args.kt, k_r=args.kr, n_files=args.n, m_t=as_fraction(args.mt), m_r=0, file_bits=None
    )
    rows = sweep_figure(cfg, args.figure)
    header = (
        "m_r,inv_sdof_proposed,inv_sdof_baseline"
        if args.figure == "fig2"
        else "m_r,ndt_decentralized,ndt_centralized"
    )
    out = Path(args.out or f"{args.figure}.csv")
    decimal_lines = [header] + [
        f"{fmt_decimal(m)},{fmt_decimal(a)},{fmt_decimal(b)}" for m, a, b in rows
    ]
    out.write_text("\n".join(decimal_lines) + "\n")
    sidecar = out.with_suffix(out.suffix + ".exact")
    exact_lines = [header] + [
        f"{fmt_rational(m)},{fmt_rational(a)},{fmt_rational(b)}" for m, a, b in rows
    ]
    sidecar.write_text("\n".join(exact_lines) + "\n")
    print(f"wrote {out} ({len(rows)} rows) and {sidecar}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="cachenet",
        description="Cache-aided interference network toolkit: placement, delivery plans, sDoF/NDT metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    net = argparse.ArgumentParser(add_help=False)
    net.add_argument("--kt", type=int, help="number of transmitters")
    net.add_argument("--kr", type=int, help="number of receivers")
    net.add_argument("--n", type=int, help="library size in files")
    net.add_argument("--mt", help="transmitter cache size in files (int or p/q)")
    net.add_argument("--mr", help="receiver cache size in files (int or p/q)")
    net.add_argument("--file-bits", dest="file_bits", type=int, help="finite file length in bits")
    net.add_argument("--seed", type=int, help="base seed for random placement (default 1)")
    net.add_argument("--demand", help="1-based demanded file per receiver, e.g. 1,2,3,4")
    net.add_argument("--config", help="key=value config file; flags override it")

    p = sub.add_parser("sdof", parents=[net], help="achievable and baseline sum-DoF")
    p.set_defaults(func=cmd_sdof)

    p = sub.add_parser("ndt", parents=[net], help="closed-form and scheme-derived delivery time")
    p.add_argument("--seeds", type=int, default=0, help="Monte-Carlo placements (needs --file-bits)")
    p.set_defaults(func=cmd_ndt)

    p = sub.add_parser("oracle-ndt", parents=[net], help="scheme-derived delivery time only")
    p.add_argument("--seeds", type=int, default=0, help="Monte-Carlo placements (needs --file-bits)")
    p.set_defaults(func=cmd_oracle_ndt)

    p = sub.add_parser("plan", parents=[net], help="generate a delivery plan with its ledger")
    p.add_argument("--mode", choices=("centralized", "decentralized"))
    p.add_argument("--out", help="write the plan text here instead of stdout")
    p.add_argument("--show", action="store_true", help="also print the placement export")
    p.add_argument("--verify", action="store_true", help="run completeness and phy checks")
    p.add_argument("--channel-seeds", dest="channel_seeds", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9, help="relative ZF tolerance")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", parents=[net], help="verify a serialized plan")
    p.add_argument("--plan-file", dest="plan_file", help="plan text (default: stdin)")
    p.add_argument("--mode", choices=("centralized", "decentralized"))
    p.add_argument("--channel-seeds", dest="channel_seeds", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9, help="relative ZF tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[net], help="figure-reproduction CSV")
    p.add_argument("--figure", choices=("fig2", "fig4"), required=True)
    p.add_argument("--out", help="CSV output path (default <figure>.csv)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args, parser)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
