"""cachenet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload zf-verify --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout that
holds this file, and the run fails if `cachenet` resolves anywhere else.

With `--trace 0` the run measures the end-to-end metrics: set-up time
(fresh interpreters importing `cachenet.cli`, plus making the inputs), then
one warm-up pass over the workload's jobs, then whole passes until
`--seconds` have elapsed, one job at a time in this process.  A fixed
reference loop is timed before and after every job, and each job's wall
time is reported in units of the mean of the two reference times around it
(`ref`), because the shared host's speed drifts by up to 2x within and
between runs (see README.md).  Wall-time figures are printed as well.  With
`--trace 1` it instead runs untraced and traced passes alternately and
reports per-layer metrics from the spans (see tracing.py), with the tracing
overhead.  Every job's output is checked; a job that fails a check, or
whose output differs from its warm-up output, counts as failed.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Raw numbers of the
run go to perfbench/out/runs/.
"""

from __future__ import annotations

import os

# The program multiplies matrices of at most 8x8; pin BLAS to one thread so
# an idle thread pool cannot add noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

# Fresh-import samples taken before the timed phase; one more is taken after
# each timed pass, so the median of set-up time spans the whole run and not
# only the host's speed in its first seconds.
IMPORT_SAMPLES = 3
INPUT_SAMPLES = 5
TRACE_ROUNDS = 2
IMPORT_PROBE = "import cachenet.cli, sys; sys.stdout.write(cachenet.cli.__file__)"

# The reference loop: numpy.linalg.det on one 8x8 matrix, the kind of call
# the program makes most (small numpy calls, each with interpreter overhead
# around it), 3-5 ms in all.  In a 4-minute recording per workload, the
# median per-job ratio to this loop timed around the job varied 2-8% between
# 30 s windows where the median job wall time varied 7-40%.  A pure-Python
# loop, a memory-copy loop, or either mixed in, tracked the jobs less well
# (up to 13% on mc-ndt).
REF_DETS = 500
REF_MATRIX = np.random.default_rng(0).random((8, 8))


def reference_loop() -> float:
    """Wall time of a fixed piece of work that calls no cachenet code."""
    start = time.perf_counter()
    for _ in range(REF_DETS):
        np.linalg.det(REF_MATRIX)
    return time.perf_counter() - start


class ProvenanceError(RuntimeError):
    """The code being measured is not the checkout's, or the machine is misconfigured."""


def _inside_root(path: str) -> bool:
    return Path(path).resolve().is_relative_to(ROOT)


def load_cachenet() -> SimpleNamespace:
    """Import the checkout's cachenet; refuse a copy from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cachenet
        from cachenet import cli, delivery, metrics, model, phy, placement
    except ImportError as exc:
        raise ProvenanceError(f"cannot import cachenet from {SRC}: {exc}") from exc
    if not _inside_root(cachenet.__file__):
        raise ProvenanceError(f"cachenet resolves to {cachenet.__file__}, outside the checkout {ROOT}")
    return SimpleNamespace(
        package=cachenet, cli=cli, delivery=delivery, metrics=metrics, model=model, phy=phy, placement=placement
    )


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when the checkout is not a git work tree of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(api: SimpleNamespace) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = _blas_threads()
    if threads is not None and threads > nproc:
        raise ProvenanceError(f"BLAS uses {threads} threads on {nproc} CPUs")
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "cpu": cpu,
        "commit": _git_commit(),
        "cachenet": str(Path(api.package.__file__).resolve().relative_to(ROOT)),
    }


# -- set-up --------------------------------------------------------------------


def time_fresh_import() -> float:
    """Wall time of a fresh interpreter that imports cachenet.cli and exits."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not _inside_root(proc.stdout.strip() or "/"):
        raise ProvenanceError(f"fresh interpreter imported cachenet.cli from {proc.stdout!r}: {proc.stderr.strip()}")
    return elapsed


def measure_setup(workload: str, seed: int) -> dict[str, list[float]]:
    """Samples of the two parts of set-up time: fresh imports and making the inputs."""
    time_fresh_import()  # compiles bytecode on a fresh checkout; not counted
    imports = [time_fresh_import() for _ in range(IMPORT_SAMPLES)]
    inputs = []
    for _ in range(INPUT_SAMPLES):
        start = time.perf_counter()
        workloads.make_jobs(workload, seed)
        inputs.append(time.perf_counter() - start)
    return {"import_s": imports, "inputs_s": inputs}


# -- passes --------------------------------------------------------------------


class Runner:
    """Runs jobs, checks them and compares each output with its warm-up output."""

    def __init__(self, api, jobs, tracer=None) -> None:
        self.api = api
        self.jobs = jobs
        self.tracer = tracer
        self.reference: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = ""

    def _run(self, index: int, job) -> tuple[float, bytes]:
        start = time.perf_counter()
        try:
            result = workloads.run_job(job, self.api)
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            result = workloads.JobResult(b"", [f"{type(exc).__name__}: {exc}"])
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = list(result.problems)
        job_digest = hashlib.sha256(result.output).hexdigest()
        if index < len(self.reference) and job_digest != self.reference[index]:
            problems.append("output differs from the warm-up pass")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"job {index} {job.kind} {job.tag}: " + "; ".join(problems))
        return elapsed, result.output

    def warm_up(self) -> float:
        """First pass: fixes each job's reference output and the run's digest."""
        digest = hashlib.sha256()
        start = time.perf_counter()
        for index, job in enumerate(self.jobs):
            _, output = self._run(index, job)
            self.reference.append(hashlib.sha256(output).hexdigest())
            digest.update(output)
        self.digest = digest.hexdigest()
        return time.perf_counter() - start

    def timed_pass(self, times: list[float]) -> None:
        for index, job in enumerate(self.jobs):
            elapsed, _ = self._run(index, job)
            times.append(elapsed)

    def ref_pass(self, times: list[float], refs: list[float], ratios: list[float]) -> None:
        """A timed pass with the reference loop timed before each job and after
        the last; each job's ratio is to the mean of the reference times around it."""
        before = reference_loop()
        refs.append(before)
        for index, job in enumerate(self.jobs):
            elapsed, _ = self._run(index, job)
            after = reference_loop()
            refs.append(after)
            times.append(elapsed)
            ratios.append(elapsed / ((before + after) / 2))
            before = after

    def traced_pass(self) -> float:
        start = time.perf_counter()
        with self.tracer.installed():
            for index, job in enumerate(self.jobs):
                with self.tracer.job(job.tag):
                    self._run(index, job)
        return time.perf_counter() - start


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    try:
        api = load_cachenet()
        prov = provenance(api)
        if args.trace == 0:
            setup_raw = measure_setup(args.workload, args.seed)
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in prov.items():
        print(f"provenance {key}: {value}")

    jobs = workloads.make_jobs(args.workload, args.seed)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(api, jobs, tracer)
    raw: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    os.chdir(workdir)
    try:
        for _ in range(3):  # not timed: first calls of the reference loop
            reference_loop()
        raw["warmup_s"] = runner.warm_up()
        if args.trace == 0:
            times: list[float] = []
            refs: list[float] = []
            ratios: list[float] = []
            start = time.perf_counter()
            passes = 0
            while time.perf_counter() - start < args.seconds:
                runner.ref_pass(times, refs, ratios)
                passes += 1
                setup_raw["import_s"].append(time_fresh_import())
            wall = time.perf_counter() - start
            setup_s = statistics.median(setup_raw["import_s"]) + statistics.median(setup_raw["inputs_s"])
            pct = workloads.TAIL_PERCENTILE[args.workload]
            tail = percentile(ratios, pct)
            metrics = {
                "jobs_per_kref": (1000 * len(ratios) / sum(ratios), "1/kref"),
                "job_p50_ref": (statistics.median(ratios), "ref"),
                "job_tail_ref": (tail, "ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "setup_s": (setup_s, "s"),
            }
            raw.update(setup_raw, wall_s=wall, passes=passes, job_s=times, ref_s=refs, job_ref=ratios)
            print(f"timed phase: {passes} passes, {len(times)} jobs in {wall:.3f} s")
            print(
                f"wall time: jobs_per_s={len(times) / sum(times):.6g} job_p50_s={statistics.median(times):.6g} "
                f"job_tail_s={percentile(times, pct):.6g}; reference loop median {statistics.median(refs):.6g} s "
                f"(p10 {percentile(refs, 10):.6g}, p90 {percentile(refs, 90):.6g})"
            )
            beyond = sum(r > tail for r in ratios)
            raw.update(tail_percentile=pct, jobs_beyond_tail=beyond)
            print(f"job_tail_ref is p{pct}: {beyond} of {len(ratios)} jobs beyond it")
            if beyond < workloads.TAIL_MIN_BEYOND:
                print(f"warning: job_tail_ref has fewer than {workloads.TAIL_MIN_BEYOND} jobs beyond p{pct}")
        else:
            untraced = traced = 0.0
            for _ in range(TRACE_ROUNDS):
                times = []
                start = time.perf_counter()
                runner.timed_pass(times)
                untraced += time.perf_counter() - start
                traced += runner.traced_pass()
            metrics = tracer.metrics()
            metrics["trace.untraced_wall_s"] = (untraced, "s")
            metrics["trace.traced_wall_s"] = (traced, "s")
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            tracer.write_spans(OUT / "spans" / f"{args.workload}-seed{args.seed}.json.gz")
            _print_layers(tracer)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"digest {args.workload} seed={args.seed} sha256={runner.digest}")
    print(f"failed_frac: {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.6g}")
    for line in runner.problems:
        print(f"problem: {line}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    raw.update(
        provenance=prov,
        digest=runner.digest,
        attempted=runner.attempted,
        failed=runner.failed,
        metrics={name: value for name, (value, _) in metrics.items()},
    )
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(json.dumps(raw))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_layers(tracer) -> None:
    """Every traced function: calls and self time, by layer."""
    table = tracer.function_table()
    total = sum(own for _, own in table.values()) or 1.0
    print(f"{'function':40} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, (calls, own) in sorted(table.items(), key=lambda item: -item[1][1]):
        print(f"{name:40} {calls:9d} {own:10.4f} {own / total:7.1%}")


if __name__ == "__main__":
    sys.exit(main())
