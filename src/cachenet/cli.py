"""Command-line interface: metrics, plan generation/verification, figure CSV export.

Every command is deterministic given its flags and seeds; reruns produce
byte-identical output.  Exit status 0 means no verification failure and no
configuration error; verification failures exit 1, usage and configuration
errors exit 2, and a reader that closes stdout early gives 141, as SIGPIPE would.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from .delivery import (
    IA_ASSUMPTION_NOTE,
    DeliveryPlan,
    MalformedPlanError,
    SubspaceLedger,
    account_plan,
    build_centralized_plan,
    build_decentralized_plan,
    check_plan_file,
    common_sdof,
    parse_plans,
    serialize_plan,
    verify_completeness,
)
from .metrics import (
    FIG2_TEMPLATE,
    FIG4_TEMPLATE,
    McNdt,
    mc_ndt,
    ndt_oracle,
    ndt_report,
    sdof_report,
    sweep_figure,
)
from .model import ConfigurationError, DemandVector, NetworkConfig, fmt_decimal, fmt_rational
from .placement import MODES, place_centralized, place_decentralized

__all__ = ["main"]


def count(text: str) -> int:
    """Type of seed and count flags: a non-negative int; argparse names the flag of a rejected value."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def tolerance(text: str) -> float:
    """Type of `--tol`: a number in (0, 1); NaN, inf or values >= 1 would switch the leak check off."""
    if not 0 < float(text) < 1:
        raise ValueError(text)
    return float(text)


def rational(text: str) -> Fraction:
    """Type of `--mt` and `--mr`: an exact int or p/q; a zero denominator is a ValueError like any bad value."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def file_numbers(text: str) -> tuple[int, ...]:
    """Type of `--demand`: 1-based file numbers, one per receiver (e.g. 1,2,3,4), as 0-based file indices."""
    return tuple(int(tok) - 1 for tok in text.split(","))


def _read_config_file(path: str, keys: dict[str, argparse.Action]) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _merge_config(args: argparse.Namespace, keys: dict[str, argparse.Action]) -> None:
    """Flags override config-file values; fill unset flags from the file.

    A file value is parsed only when its flag is unset, by the type and
    choices of the flag's own action, so it passes the flag's checks.
    """
    if args.config:
        for key, value in _read_config_file(args.config, keys).items():
            if getattr(args, key, None) is None:
                action = keys[key]
                try:
                    parsed = action.type(value) if action.type else value
                    if action.choices is not None and parsed not in action.choices:
                        raise ValueError(value)
                except ValueError:
                    raise ConfigurationError(f"{args.config}: invalid value in {key}={value}") from None
                setattr(args, key, parsed)
    if args.seed is None:
        args.seed = 1


def _network(args: argparse.Namespace, parser: argparse.ArgumentParser) -> NetworkConfig:
    missing = [flag for flag in ("kt", "kr", "n", "mt", "mr") if getattr(args, flag) is None]
    if missing:
        parser.error("missing required network parameters: " + ", ".join(f"--{m}" for m in missing))
    return NetworkConfig(
        k_t=args.kt,
        k_r=args.kr,
        n_files=args.n,
        m_t=args.mt,
        m_r=args.mr,
        file_bits=args.file_bits,
    )


def _demand(args: argparse.Namespace, cfg: NetworkConfig) -> DemandVector:
    demand = DemandVector(args.demand) if args.demand else DemandVector.worst_case(cfg)
    demand.validate(cfg)
    return demand


def _check_file_bits(cfg: NetworkConfig, args) -> None:
    """A decentralized run is one of finite file size, so it needs --file-bits."""
    if args.mode == "decentralized" and cfg.file_bits is None:
        raise ConfigurationError("decentralized mode needs --file-bits")


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


def _mc(cfg: NetworkConfig, demand: DemandVector, args) -> McNdt | None:
    """The Monte-Carlo delivery time over `--seeds` placements from `--seed` on; None without `--seeds`."""
    if args.seeds and cfg.file_bits is None:
        raise ConfigurationError("--seeds needs --file-bits for finite-size runs")
    return mc_ndt(cfg, demand, list(range(args.seed, args.seed + args.seeds))) if args.seeds else None


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
    demand = _demand(args, cfg)
    report = ndt_report(cfg, demand)
    mc = _mc(cfg, demand, args)
    print(f"formula={_rat(report.formula_value)}")
    return _print_ndt(report.oracle_value, report.tier_breakdown, report.flags, mc)


def cmd_oracle_ndt(args, parser) -> int:
    cfg = _network(args, parser)
    demand = _demand(args, cfg)
    return _print_ndt(*ndt_oracle(cfg, demand), (), _mc(cfg, demand, args))


def _print_ledgers(cfg: NetworkConfig, plan: DeliveryPlan) -> list[SubspaceLedger]:
    ledgers = account_plan(cfg, plan)
    for block, ledger in zip(plan.blocks, ledgers):
        # a rotation block's receivers share one ledger, so its DoF is made once
        dofs = sorted({r.dof for r in set(ledger.receivers)})
        shape = "uniform" if ledger.uniform else "NON-UNIFORM"
        first = ledger.receivers[0]
        print(
            f"ledger {plan.mode} block={block.position + 1}: per-user DoF "
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
    args.mode = args.mode or "centralized"
    _check_file_bits(cfg, args)
    if args.mode == "centralized":
        plans = [build_centralized_plan(cfg, None, demand)]
    else:
        plans = build_decentralized_plan(cfg, demand)
    # only the listings need a placement; the plans follow from cfg and the mode.  It is drawn
    # before any output, so one that cannot be built leaves no plan text and no --out file.
    listing = ""
    if args.show:
        placement = place_centralized(cfg) if args.mode == "centralized" else place_decentralized(cfg, args.seed)
        listing = placement.export_text()
    text = "".join(serialize_plan(p) for p in plans)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({sum(len(b) for p in plans for b in p.blocks)} scheduled subfiles)")
    else:
        sys.stdout.write(text)
    sys.stdout.write(listing)
    ledgers = [_print_ledgers(cfg, plan) for plan in plans]
    if args.verify:
        return _verify(cfg, plans, demand, args, ledgers)
    return 0


def _verify(
    cfg: NetworkConfig,
    plans: list[DeliveryPlan],
    demand: DemandVector,
    args,
    ledgers: list[list[SubspaceLedger]],
) -> int:
    failures = 0
    completeness = verify_completeness(cfg, plans, args.mode, demand)
    print(f"completeness: {completeness.summary()}")
    if not completeness.complete:
        failures += 1
        for kind in ("missing", "duplicated", "extraneous"):
            for dest, sub in getattr(completeness, kind)[:10]:
                print(f"  {kind} for rx {dest + 1}: {sub.label()}")
    for plan, plan_ledgers in zip(plans, ledgers):
        for block, ledger in zip(plan.blocks, plan_ledgers):
            if not ledger.uniform:
                print(
                    f"warning: {plan.mode} block={block.position + 1} has a non-uniform ledger; "
                    f"accepted, but the schedule is not the rotation-generated one"
                )
    reports = []
    if args.channel_seeds:
        # numpy comes in with phy; only the commands that check a channel pay for it
        from .phy import verify_plan_phy

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
    demand = DemandVector(args.demand) if args.demand else None
    try:
        plans, args.mode, demand, ledgers = check_plan_file(cfg, parse_plans(text), args.mode, demand)
    except MalformedPlanError as exc:
        print(f"malformed plan: {exc}")
        return 1
    _check_file_bits(cfg, args)
    return _verify(cfg, plans, demand, args, ledgers)


def cmd_sweep(args, parser) -> int:
    template_defaults = FIG2_TEMPLATE if args.figure == "fig2" else FIG4_TEMPLATE
    for key, attr in (("k_t", "kt"), ("k_r", "kr"), ("n_files", "n"), ("m_t", "mt")):
        if getattr(args, attr, None) is None:
            setattr(args, attr, template_defaults[key])
    cfg = NetworkConfig(
        k_t=args.kt, k_r=args.kr, n_files=args.n, m_t=args.mt, m_r=0, file_bits=None
    )
    rows = sweep_figure(cfg, args.figure)
    header = (
        "m_r,inv_sdof_proposed,inv_sdof_baseline"
        if args.figure == "fig2"
        else "m_r,ndt_decentralized,ndt_centralized"
    )
    out = Path(args.out or f"{args.figure}.csv")
    sidecar = out.with_suffix(out.suffix + ".exact")
    for path, fmt in ((out, fmt_decimal), (sidecar, fmt_rational)):
        path.write_text("\n".join([header] + [",".join(map(fmt, row)) for row in rows]) + "\n")
    print(f"wrote {out} ({len(rows)} rows) and {sidecar}")
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    """The argument parser and its config-file keys' actions, built once per process: parsing never changes them."""
    parser = argparse.ArgumentParser(
        prog="cachenet",
        description="Cache-aided interference network toolkit: placement, delivery plans, sDoF/NDT metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    net = argparse.ArgumentParser(add_help=False)
    config_keys = [
        net.add_argument("--kt", type=int, help="number of transmitters"),
        net.add_argument("--kr", type=int, help="number of receivers"),
        net.add_argument("--n", type=int, help="library size in files"),
        net.add_argument("--mt", type=rational, help="transmitter cache size in files (int or p/q)"),
        net.add_argument("--mr", type=rational, help="receiver cache size in files (int or p/q)"),
        net.add_argument("--file-bits", dest="file_bits", type=int, help="finite file length in bits"),
        net.add_argument("--seed", type=count, help="base seed for random placement (default 1)"),
        net.add_argument("--demand", type=file_numbers, help="1-based demanded file per receiver, e.g. 1,2,3,4"),
    ]
    net.add_argument("--config", help="key=value config file; flags override it")
    placed = argparse.ArgumentParser(add_help=False)
    config_keys.append(placed.add_argument("--mode", choices=MODES))
    placed.add_argument("--channel-seeds", dest="channel_seeds", type=count, default=10)
    placed.add_argument("--tol", type=tolerance, default=1e-9, help="relative ZF tolerance")
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--seeds", type=count, default=0, help="Monte-Carlo placements (needs --file-bits)")

    p = sub.add_parser("sdof", parents=[net], help="achievable and baseline sum-DoF")
    p.set_defaults(func=cmd_sdof)

    p = sub.add_parser("ndt", parents=[net, mc], help="closed-form and scheme-derived delivery time")
    p.set_defaults(func=cmd_ndt)

    p = sub.add_parser("oracle-ndt", parents=[net, mc], help="scheme-derived delivery time only")
    p.set_defaults(func=cmd_oracle_ndt)

    p = sub.add_parser("plan", parents=[net, placed], help="generate a delivery plan with its ledger")
    p.add_argument("--out", help="write the plan text here instead of stdout")
    p.add_argument("--show", action="store_true", help="also print the placement export")
    p.add_argument("--verify", action="store_true", help="run completeness and phy checks")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", parents=[net, placed], help="verify a serialized plan")
    p.add_argument("--plan-file", dest="plan_file", help="plan text (default: stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[net], help="figure-reproduction CSV")
    p.add_argument("--figure", choices=("fig2", "fig4"), required=True)
    p.add_argument("--out", help="CSV output path (default <figure>.csv)")
    p.set_defaults(func=cmd_sweep)

    return parser, {action.dest: action for action in config_keys}


def main(argv: list[str] | None = None) -> int:
    parser, config_keys = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, config_keys)
        code = args.func(args, parser)
        sys.stdout.flush()  # a reader that closed stdout early shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # not a configuration error: point stdout at devnull so the exit-time flush is quiet; 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigurationError, ValueError, OSError, MemoryError) as exc:
        # numpy names the refused allocation; a bare MemoryError has no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
