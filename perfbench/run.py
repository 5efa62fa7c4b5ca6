#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload <dense_catalog|rack_burst|rack_chaos> \
      --seed <n> --seconds <s> --trace <0|1>

The first run builds perfbench/ (and the simulator sources it compiles) into
.bench_build/perfbench with CMake; later runs only re-check the build.
stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"},
where metrics are the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1, each as {"value", "unit"}. Every line before it is a
human-readable table that also names each metric's clock (host, virtual or
count). Any failed check (ledger, zero loss, digest) exits non-zero without
a result line. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(HERE / "spec.json") as f:
        return json.load(f)


def build():
    """Configures once, then (re)builds; returns False on any failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR / "CMakeFiles", ignore_errors=True)
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
        return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def run_binary(args, extra=()):
    """Runs the benchmark binary; returns its parsed JSON line or None."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += list(extra)
    if args.trace:
        trace_dir = BUILD_DIR / "spans"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"perfbench: {args.workload} failed (exit {proc.returncode})")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def table(rows):
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def report(args, spec, result):
    """Prints the table and returns the result line's metrics (or None)."""
    section = "per_layer" if args.trace else "end_to_end"
    measured = result[section]
    known = {m["name"] for m in spec[section]}
    unknown = sorted(set(measured) - known)
    if unknown:
        log(f"perfbench: binary reported metrics missing from spec.json: {unknown}")
        return None
    rows = [("metric", "value", "unit", "clock", "better")]
    metrics = {}
    for m in spec[section]:
        # Layers a workload does not exercise report 0 (see README.md).
        value = measured.get(m["name"], 0.0)
        note = ""
        if m["name"] == "e2e_p99_ms":
            note = f"  (n>={result['e2e_samples']} per sub-trace)"
        rows.append((m["name"], f"{value:.6g}{note}", m["unit"], m["clock"], m["better"]))
        if not m.get("table_only", False):
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"workload {result['workload']}  seed {result['seed']}  sub-traces "
          f"{result['subtraces']}  repetitions {result['reps']}  reference kernel "
          f"{result['reference_s']:.4g} s (median; host seconds are calibrated to it)")
    print("sub-trace digests " + " ".join(result["digests"]))
    print(table(rows))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Reduced traces of the same shape, for perfbench/test_perfbench.py.
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in spec["workloads"]:
        log(f"perfbench: unknown workload {args.workload!r}")
        return 2
    if not build():
        log("perfbench: build failed")
        return 1
    result = run_binary(args, ["--small"] if args.small else [])
    if result is None or not result.get("correct"):
        return 1
    metrics = report(args, spec, result)
    if metrics is None:
        return 1
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
