#!/usr/bin/env python3
"""Self-check of the benchmark.

Confirms that the benchmark fails, without a result line, in a directory
that holds only BENCHMARK.json and the benchmark's own files. Then runs
every workload of BENCHMARK.json once untraced and once traced, with a
short --seconds, and confirms that each run ends with a result line that
names exactly the end-to-end (untraced) or per-layer (traced) metrics of
BENCHMARK.json, with their units and numeric values, and reports correct
outputs.

Run from the repository root:  python3 perfbench/selfcheck.py [--workload NAME]
It takes about three minutes for all workloads, most of it full-scan.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result_of(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) and "metrics" in out else None


def check_run(bench, workload, trace) -> list[str]:
    cmd = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = result_of(proc.stdout)
    if result is None:
        return [f"{where}: last line is not a result"]
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or not result.get("attempted", 0) >= 1:
        bad.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        bad.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            bad.append(f"{where}: {name} value {m.get('value')!r} is not a number")
    return bad


def check_bare_directory(bench) -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selfcheck-bare-", dir=work_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_of(proc.stdout) is not None:
        return [f"bare directory: exit code {proc.returncode} with output {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Check that every run emits every metric.")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bad = check_bare_directory(bench)
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            problems = check_run(bench, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            bad += problems
    for line in bad:
        print(line, file=sys.stderr)
    print("selfcheck " + ("passed" if not bad else f"failed ({len(bad)} problems)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
