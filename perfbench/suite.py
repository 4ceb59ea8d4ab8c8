"""Run the cachenet benchmark over its workloads and report every metric.

    python3 perfbench/suite.py                    # each workload once, untraced and traced
    python3 perfbench/suite.py --runs 10 --sets 2  # steadiness: 10 seeds per workload, twice

The first form prints every end-to-end and per-layer metric by name and
unit for each workload.  The second runs each workload on `--runs`
consecutive seeds, `--sets` times over, and prints for every end-to-end
metric the spread of each set (interquartile range over median, as
`statistics.quantiles(values, n=4)` gives it) next to the metric's bound
from BENCHMARK.json, and how far the last set's median moved from the
first.  It is steady when every spread, `setup_s`'s too, and every move, in
either direction, is within the metric's bound, each set has at least two
runs, no job failed and each seed's output digest is the same in every set.
Every run's raw result is kept in perfbench/out/suite-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed={seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    digest = re.search(r"^digest \S+ seed=\d+ sha256=(\w+)$", proc.stdout, re.M)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "result": json.loads(lines[-1]),
        "digest": digest.group(1) if digest else None,
        "stdout": lines[:-1],
    }


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def print_all(record: dict) -> None:
    result = record["result"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={result['correct']} failed={result['failed']}/{result['attempted']} digest={record['digest']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:45} {metric['value']:>14.6g} {metric['unit']}")


def steadiness(records: list[dict], spec: dict, sets: int) -> bool:
    """Print spreads and moves against bounds; True when the runs are steady (see above)."""
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        print(f"== {name}")
        print(f"  {'metric':14} {'bound':>6} " + " ".join(f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}" for s in range(sets))
              + ("  moved" if sets > 1 else ""))
        for metric in spec["end_to_end"]:
            per_set = [
                [r["result"]["metrics"][metric["name"]]["value"] for r in records if r["workload"] == name and r["set"] == s]
                for s in range(sets)
            ]
            if any(len(v) < 2 for v in per_set):
                ok = False
                print(f"  {metric['name']:14} fewer than two runs in a set")
                continue
            cells = []
            for values in per_set:
                s = spread(values)
                ok &= s <= metric["bound"]
                cells.append(f"{statistics.median(values):11.5g} {s:8.2%}")
            line = f"  {metric['name']:14} {metric['bound']:6.0%} " + " ".join(cells)
            if sets > 1:
                m1, m2 = statistics.median(per_set[0]), statistics.median(per_set[-1])
                moved = (m2 - m1) / m1
                ok &= abs(moved) <= metric["bound"]
                line += f"  {moved:+.2%}"
            print(line)
        failed = sum(r["result"]["failed"] for r in records if r["workload"] == name)
        attempted = sum(r["result"]["attempted"] for r in records if r["workload"] == name)
        digests = {}
        for r in records:
            if r["workload"] == name:
                digests.setdefault(r["seed"], set()).add(r["digest"])
        same = all(len(d) == 1 for d in digests.values())
        ok &= same and failed == 0
        print(f"  failed {failed}/{attempted}; digests {'identical' if same else 'DIFFER'} across sets for each seed")
        warned = [r["seed"] for r in records if r["workload"] == name and any(line.startswith("warning:") for line in r["stdout"])]
        if warned:
            print(f"  runs that printed a warning: seeds {warned}")
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=0, help="seeds per workload and set (0: one untraced and one traced run)")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    OUT.mkdir(parents=True, exist_ok=True)
    raw_path = OUT / f"suite-{time.strftime('%Y%m%dT%H%M%S')}.json"
    records: list[dict] = []
    if args.runs == 0:
        for name in names:
            for trace in (0, 1):
                record = run_once(name, FIRST_SEED, seconds, trace)
                records.append(record)
                print_all(record)
                raw_path.write_text(json.dumps(records))
        return 0 if all(r["result"]["correct"] for r in records) else 1

    for s in range(args.sets):
        for name in names:
            for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
                record = run_once(name, seed, seconds, 0)
                record["set"] = s
                records.append(record)
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in record["result"]["metrics"].items())
                print(f"set {s + 1} {name} seed={seed}: {values}", flush=True)
                raw_path.write_text(json.dumps(records))
    ok = steadiness(records, spec, args.sets)
    print(f"raw results: {raw_path.relative_to(ROOT)}")
    print("steady within every bound" if ok else "NOT steady within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
