"""Benchmark workloads: job lists made from a seed, job runners and output checks.

Every workload is a list of jobs run in one pass; the timed phase repeats
whole passes, so each run sees the same job mix.  A job is one user-level
command sequence run in-process.  Its output (stdout plus any file it
wrote) is returned as bytes for the run's digest, together with the list of
problems the output checks found.

- `zf-verify`: centralized `plan --verify` pipelines at K in {4, 6, 8},
  each over two channel seeds drawn from the workload seed.  The jobs call
  the library sequence `cli.cmd_plan` / `cli._verify` use, because the CLI
  always checks channel seeds 0..S-1.  Zero-forcing checks in `phy`
  dominate.
- `mc-ndt`: `cachenet ndt --file-bits 1000000 --seeds 2 --seed <s>` at 3x3
  and 4x4 through `cli.main`.  Decentralized placement and subset profiles
  dominate, and the `K_R x N x F` cache mask sets peak memory.
- `exact-grid`: `sdof`, `ndt`, `plan --out` and `verify --plan-file
  --channel-seeds 0` through `cli.main` at 40 integral corners spread over
  the grid K_T, K_R in 2..8, plus the 8x8 corner t_T=4, t_R=1 whose scheme
  oracle is the slowest exact computation, plus a 3x3 decentralized
  `plan --out` / `verify --plan-file` round trip whose placement seed comes
  from the workload seed.  Exact `Fraction` work, plan text writing and
  parsing, and per-command CLI overhead; no `phy`.

The seed must not change what a pass costs, or the spread between seeds
hides a regression.  Channel seeds and Monte-Carlo seeds leave the cost
alone.  On `exact-grid` the corners and the demand (the default worst case)
are the same for every seed: replaying measured per-corner times, a
seed-drawn sample of corners moved the median and tail job time by 10-20%
from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("zf-verify", "mc-ndt", "exact-grid")

# Percentile reported as job_tail_ref: the highest one with at least
# TAIL_MIN_BEYOND jobs beyond it at this program's speed, also in a slow
# run, fixed so every run and every commit reports the same one.  Each lies
# inside one job class of the pass mix, not on a boundary between classes.
# A run with fewer jobs beyond it prints a warning.
TAIL_PERCENTILE = {"zf-verify": 80, "mc-ndt": 70, "exact-grid": 90}
TAIL_MIN_BEYOND = 10

# zf-verify pass: (K, t_T, t_R, jobs per pass).  Sorted by job time the
# classes fill 0-30%, 30-70%, 70-90% and 90-100% of a pass, so the median
# lies in the (6, 3, 2) class and the 80th percentile in the (8, 2, 1) class.
ZF_CORNERS = ((4, 2, 1, 3), (6, 3, 2, 4), (8, 2, 1, 2), (8, 3, 1, 1))
ZF_CHANNEL_SEEDS = 2

# mc-ndt pass: (K_T, K_R, N, M_T, M_R, jobs per pass).  3x3 jobs fill 0-60%
# of a pass sorted by job time, 4x4 jobs 60-100%, so the median lies in the
# 3x3 class and the 70th percentile in the 4x4 class.
MC_CORNERS = ((3, 3, 3, 2, 1, 3), (4, 4, 4, 2, 1, 2))
MC_FILE_BITS = 1_000_000
MC_SEEDS = 2
# The Monte-Carlo mean must lie within MC_SIGMAS standard errors of the
# scheme oracle.  The standard error is the one `ndt` prints, but never less
# than MC_SEED_SD / sqrt(MC_SEEDS): a two-seed estimate of the spread is too
# often tiny by chance.  MC_SEED_SD is the per-seed spread of the
# finite-size delivery time at F = 10^6 over 200 placement seeds.
MC_SIGMAS = 6
MC_SEED_SD = {(3, 3): 5.6e-5, (4, 4): 2.7e-5}

GRID_K = range(2, 9)
GRID_SAMPLES = 40
# Corners whose proxy cost is at or above this are left out of the sample:
# beyond it a few corners of 1-4 s each would dominate a pass.
GRID_PROXY_LIMIT = 6000
GRID_ANCHOR = (8, 8, 4, 1)
DEC_FILE_BITS = 3000


@dataclass(frozen=True)
class Job:
    kind: str  # "zf", "mc", "grid" or "dec"
    tag: tuple[int, int, int, int]  # (K_T, K_R, t_T, t_R)
    params: tuple


@dataclass
class JobResult:
    output: bytes
    problems: list[str]


# -- job lists ---------------------------------------------------------------


def grid_corners() -> list[tuple[int, int, int, int]]:
    """All integral corners (K_T, K_R, t_T, t_R) with t_T >= 1 and t_R < K_R."""
    return [
        (k_t, k_r, t_t, t_r)
        for k_t in GRID_K
        for k_r in GRID_K
        for t_t in range(1, k_t + 1)
        for t_r in range(k_r)
    ]


def grid_proxy(corner: tuple[int, int, int, int]) -> int:
    """Scheduled entries a corner's commands build: the tier plans of the
    oracle plus, twice, the centralized plan."""
    k_t, k_r, t_t, t_r = corner
    per_block = k_r * math.comb(k_t, t_t)
    return per_block * 2 ** (k_r - 1) + 2 * per_block * math.comb(k_r - 1, t_r)


def grid_sample() -> list[tuple[int, int, int, int]]:
    """GRID_SAMPLES corners at evenly spaced ranks of the proxy cost."""
    ranked = sorted((c for c in grid_corners() if grid_proxy(c) < GRID_PROXY_LIMIT), key=lambda c: (grid_proxy(c), c))
    return [ranked[int((i + 0.5) * len(ranked) / GRID_SAMPLES)] for i in range(GRID_SAMPLES)]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """One pass of the workload; the seed decides every random input."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    if workload == "zf-verify":
        for k, t_t, t_r, count in ZF_CORNERS:
            for _ in range(count):
                seeds = tuple(rng.sample(range(1, 2**31), ZF_CHANNEL_SEEDS))
                jobs.append(Job("zf", (k, k, t_t, t_r), (k, t_t, t_r, seeds)))
    elif workload == "mc-ndt":
        for k_t, k_r, n, m_t, m_r, count in MC_CORNERS:
            for _ in range(count):
                tag = (k_t, k_r, k_t * m_t // n, k_r * m_r // n)
                jobs.append(Job("mc", tag, (k_t, k_r, n, m_t, m_r, rng.randrange(1, 2**31))))
    elif workload == "exact-grid":
        jobs.extend(Job("grid", corner, corner) for corner in grid_sample() + [GRID_ANCHOR])
        jobs.append(Job("dec", (3, 3, 2, 1), (rng.randrange(1, 2**31),)))
    else:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    return jobs


# -- running jobs ------------------------------------------------------------


def run_job(job: Job, api) -> JobResult:
    """Run one job against the cachenet modules in `api` and check its output.

    Plan files are written to the working directory under relative names,
    so that stdout, which echoes the name, is the same in every run.
    """
    return _RUNNERS[job.kind](job, api)


def _cli(api, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = api.cli.main(argv)
    return code, out.getvalue()


def _net_args(k_t: int, k_r: int, n: int, m_t, m_r) -> list[str]:
    return ["--kt", str(k_t), "--kr", str(k_r), "--n", str(n), "--mt", str(m_t), "--mr", str(m_r)]


def _run_zf(job: Job, api) -> JobResult:
    k, t_t, t_r, channel_seeds = job.params
    # N = K files, so M_T = t_T and M_R = t_R
    cfg = api.model.NetworkConfig(k_t=k, k_r=k, n_files=k, m_t=t_t, m_r=t_r)
    demand = api.model.DemandVector.worst_case(cfg)
    problems: list[str] = []
    lines: list[str] = []
    # plan: placement, plan build, serialization, ledgers and plan sDoF
    placement = api.placement.place_centralized(cfg)
    plan = api.delivery.build_centralized_plan(cfg, placement, demand)
    lines.append(api.delivery.serialize_plan(plan))
    ledgers = api.delivery.account_plan(cfg, plan)
    lines.extend(str([(r.desired, r.aligned_dims, r.total_dims) for r in ledger.receivers]) for ledger in ledgers)
    sdof = api.delivery.plan_sdof(cfg, plan)
    lines.append(f"sdof={sdof}")
    # verify: placement again, completeness, ledger uniformity, ZF checks
    placement = api.placement.place_centralized(cfg)
    completeness = api.delivery.verify_completeness(cfg, [plan], placement, demand)
    lines.append(completeness.summary())
    uniform = all(ledger.uniform for ledger in api.delivery.account_plan(cfg, plan))
    reports = api.phy.verify_plan_phy(cfg, [plan], channel_seeds=list(channel_seeds))
    violations = sum(len(r.violations) for r in reports)
    lines.extend(r.summary() for r in reports)
    if not completeness.complete:
        problems.append(f"completeness: {completeness.summary()}")
    if violations:
        problems.append(f"{violations} ZF violations")
    if not uniform:
        problems.append("non-uniform ledger")
    expected = api.metrics.sdof_achievable(cfg)
    if sdof != expected:
        problems.append(f"ledger sDoF {sdof} != closed form {expected}")
    return JobResult("\n".join(lines).encode(), problems)


_RAT = r"(-?\d+(?:/\d+)?)"


def _run_mc(job: Job, api) -> JobResult:
    k_t, k_r, n, m_t, m_r, seed = job.params
    argv = ["ndt", *_net_args(k_t, k_r, n, m_t, m_r)]
    argv += ["--file-bits", str(MC_FILE_BITS), "--seeds", str(MC_SEEDS), "--seed", str(seed)]
    code, out = _cli(api, argv)
    problems = [] if code == 0 else [f"exit code {code}"]
    oracle = re.search(rf"^oracle={_RAT} ", out, re.M)
    mc = re.search(r"^mc=(\S+) stderr=(\S+) ", out, re.M)
    if oracle is None or mc is None:
        problems.append("missing oracle= or mc= line")
    else:
        target = float(Fraction(oracle.group(1)))
        mean, stderr = float(mc.group(1)), float(mc.group(2))
        sigma = max(stderr, MC_SEED_SD[(k_t, k_r)] / math.sqrt(MC_SEEDS))
        if not abs(mean - target) <= MC_SIGMAS * sigma:
            problems.append(f"mc mean {mean} more than {MC_SIGMAS} x {sigma:.3e} from oracle {target}")
    return JobResult(out.encode(), problems)


def _scheduled(out: str, pattern: str) -> int | None:
    m = re.search(pattern, out, re.M)
    return int(m.group(1)) if m else None


def _plan_verify_checks(plan_out: str, verify_out: str, problems: list[str]) -> None:
    wrote = _scheduled(plan_out, r"^wrote .* \((\d+) scheduled subfiles\)$")
    read = _scheduled(verify_out, r"^completeness: complete: (\d+) scheduled transmissions")
    if wrote is None or read is None or wrote != read:
        problems.append(f"plan wrote {wrote} scheduled subfiles, verify read back {read}")


def _run_grid(job: Job, api) -> JobResult:
    k_t, k_r, t_t, t_r = job.params
    # N = K_R files: M_T = t_T K_R / K_T (possibly fractional), M_R = t_R
    net = _net_args(k_t, k_r, k_r, Fraction(t_t * k_r, k_t), t_r)
    plan_file = Path("grid-plan.txt")
    outputs: list[str] = []
    problems: list[str] = []
    for argv in (
        ["sdof", *net],
        ["ndt", *net],
        ["plan", *net, "--out", str(plan_file)],
        ["verify", *net, "--plan-file", str(plan_file), "--channel-seeds", "0"],
    ):
        code, out = _cli(api, argv)
        if code != 0:
            problems.append(f"{argv[0]} exit code {code}")
        outputs.append(out)
    ndt_out = outputs[1]
    oracle = re.search(rf"^oracle={_RAT} ", ndt_out, re.M)
    tiers = re.findall(rf"^tier t=\d+: {_RAT} ", ndt_out, re.M)
    if oracle is None or Fraction(oracle.group(1)) != sum(map(Fraction, tiers), Fraction(0)):
        problems.append("oracle= differs from the sum of its tier lines")
    _plan_verify_checks(outputs[2], outputs[3], problems)
    text = plan_file.read_text() if plan_file.exists() else ""
    return JobResult("".join(outputs).encode() + text.encode(), problems)


def _run_dec(job: Job, api) -> JobResult:
    (seed,) = job.params
    net = _net_args(3, 3, 3, 2, 1) + ["--file-bits", str(DEC_FILE_BITS), "--seed", str(seed), "--mode", "decentralized"]
    plan_file = Path("dec-plan.txt")
    problems: list[str] = []
    plan_code, plan_out = _cli(api, ["plan", *net, "--out", str(plan_file)])
    verify_code, verify_out = _cli(api, ["verify", *net, "--plan-file", str(plan_file), "--channel-seeds", "0"])
    for name, code in (("plan", plan_code), ("verify", verify_code)):
        if code != 0:
            problems.append(f"{name} exit code {code}")
    _plan_verify_checks(plan_out, verify_out, problems)
    text = plan_file.read_text() if plan_file.exists() else ""
    return JobResult((plan_out + verify_out + text).encode(), problems)


_RUNNERS = {"zf": _run_zf, "mc": _run_mc, "grid": _run_grid, "dec": _run_dec}
