#!/usr/bin/env python3
"""srled benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload full-scan --seed 1 --seconds 35 --trace 0

Workloads: full-scan, sweep-delta, mc-ensemble (see perfbench/README.md).
The program is imported from ./src. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Earlier lines record the machine and further figures of the run.
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS/OpenMP thread, so the figures measure the program and not the
# scheduler; set before numpy is first imported.
PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(PINNED_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-up is measured in this process and in SETUP_SAMPLES - 1 fresh ones
SETUP_SAMPLES = 3


def set_up(name: str, seed: int, workdir: Path):
    """Import the program and make the first call on each path of the workload."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    import srled
    if Path(srled.__file__).resolve().parent != SRC / "srled":
        raise SystemExit(f"error: srled imported from {srled.__file__}, not from {SRC}")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def probe_set_up(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.split()[-1])


def machine() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "SRLED_NUMBA": os.environ.get("SRLED_NUMBA"),
        "pinned_threads": PINNED_THREADS,
    }


def measure(workload, seconds: float, ops):
    """Whole rounds until the next one would end after `seconds` (at least one)."""
    round_times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_round(len(round_times), ops)
        t1 = time.perf_counter()
        round_times.append(t1 - t0)
        if t1 - start + round_times[-1] > seconds:
            return round_times, t1 - start


def end_to_end(name, seed, seconds, workload, setup_s):
    from workloads import Ops

    ops = Ops()
    round_times, elapsed = measure(workload, seconds, ops)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [probe_set_up(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    done = ops.attempted - ops.failed
    report = {"rounds": len(round_times), "seconds": elapsed, "setup_samples_s": setups}
    if len(ops.latencies) >= 100:
        report["op_p90_ms"] = statistics.quantiles(ops.latencies, n=10)[-1] * 1e3
    if hasattr(workload, "samples"):
        report["mc_samples_per_s"] = workload.samples() / elapsed
    print("report " + json.dumps(report))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(round_times), "s"),
        "ops_per_s": (done / elapsed, "op/s"),
        "op_p50_ms": (statistics.median(ops.latencies) * 1e3 if ops.latencies else 0.0, "ms"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    return ops, metrics


def traced(seconds, workload):
    from spans import Tracer
    from workloads import Ops

    # round 0 untraced, then the same inputs again under the tracer
    t0 = time.perf_counter()
    workload.run_round(0, Ops())
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    ops = Ops()
    tracer.install()
    try:
        round_times, _ = measure(workload, seconds, ops)
    finally:
        tracer.uninstall()
    overhead = round_times[0] / untraced - 1.0
    print("layers " + json.dumps(tracer.table()))
    print(f"trace overhead: round 0 took {round_times[0]:.3f} s traced, "
          f"{untraced:.3f} s untraced ({overhead:+.1%})")
    units = {"_us": "us", "_ns": "ns", "_ms": "ms", "_s": "s"}
    metrics = {}
    for key, value in tracer.layer_metrics(max(ops.attempted, 1)).items():
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count/op")
        metrics[key] = (value, unit)
    metrics["montecarlo.record_mb"] = (
        workload.record_mb() if hasattr(workload, "record_mb") else 0.0, "MiB")
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return ops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "srled" / "__init__.py").is_file():
        print(f"error: no srled sources under {SRC}", file=sys.stderr)
        return 2
    work_root = HERE.parent / ".bench_build"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="srled-bench-", dir=work_root))
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        print("machine " + json.dumps(machine()))
        if args.trace:
            ops, metrics = traced(args.seconds, workload)
        else:
            ops, metrics = end_to_end(args.workload, args.seed, args.seconds, workload, setup_s)
        bad = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line, count in collections.Counter(ops.errors + bad).most_common(20):
        print(f"{args.workload}: {line}" + (f" (x{count})" if count > 1 else ""), file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
