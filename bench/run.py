"""Benchmark of duffingid: run one workload and print its metrics.

    python3 bench/run.py --workload fixture-nlarx --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. A fuller record of the run, with the machine and
library versions, goes to `bench/results/`; a traced run writes its spans
there too. See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, before numpy is first imported: the benchmark
# measures a single closed-loop caller.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import duffingid; "
                "print(time.perf_counter() - t)")


def import_seconds(gauge: speed.Gauge) -> float:
    """Median time to import the package in a fresh interpreter, scaled to
    the nominal machine speed by reference samples before and after it
    (none are taken while the child runs)."""
    times = []
    for _ in range(IMPORT_REPEATS):
        before = gauge.sample(speed.NEIGHBOURS)
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        scale = speed.NOMINAL_S / statistics.fmean((before, gauge.sample(speed.NEIGHBOURS)))
        times.append(float(done.stdout.strip().splitlines()[-1]) * scale)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "duffingid").glob("*.py")))
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "duffingid" / "__init__.py").is_file():
        print(f"error: no duffingid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gauge = speed.Gauge()
    import_s = import_seconds(gauge)

    import duffingid
    if Path(duffingid.__file__).resolve().parent != SRC / "duffingid":
        print(f"error: imported duffingid from {duffingid.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        RESULTS / f"{stem}-files", import_s, gauge)

    completed = bool(record.outcomes)
    if completed and args.trace:
        metrics = workloads.per_layer(record)
    elif completed:
        metrics = workloads.end_to_end(record)
    else:
        metrics = {}
    tally = record.tally
    result = {
        "correct": completed and not record.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "operations": len(record.outcomes),
        "per_operation": {
            "traced": record.traced,
            "steps": [o.steps for o in record.outcomes],
            "identify_raw_s": [gauge.raw_s(o.identify) for o in record.outcomes],
            "predict_raw_s": [gauge.raw_s(o.predict) for o in record.outcomes],
            "rollout_raw_s": [gauge.raw_s(r) for r, _ in record.probe.rollouts],
            "rollout_samples": [n for _, n in record.probe.rollouts],
        },
        "reference": {"nominal_s": speed.NOMINAL_S,
                      "median_s": statistics.median(gauge.durations),
                      "samples": len(gauge.durations)},
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else math.nan,
        "errors": tally.errors[:20],
        "problems": sorted(set(record.problems)),
        "unbounded": ({k: v for k, (v, _) in workloads.accuracy(record).items()}
                      if completed else {}),
        "result": result,
    }
    if record.tracer is not None:
        record.tracer.save(RESULTS / f"{stem}-spans.npz")
    with open(RESULTS / f"{stem}.json", "w") as handle:
        json.dump(details, handle, indent=2)
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
