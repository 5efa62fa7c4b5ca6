#!/usr/bin/env python3
"""Perf-smoke guard: compare a fresh micro-benchmark record against the
committed trajectory (BENCH_micro.json) and fail on large regressions.

Both files are JSON lines, written by bench::Record (bench/bench_util.h):

    {"utc": "...", "label": "...", "host": {...},
     "benchmarks": {"<name>": {<fields>}, ...}}

A benchmark entry is guarded when it carries one of these numbers, and the
number says which clock it was measured on:

    {"real_ns": N}   wall-clock time, lower is better
    {"sim_ns": N}    virtual (simulated) time, lower is better
    {"value": N, "direction": "higher_is_better", "clock": "sim"|"wall"}
                     a gauge, e.g. peak warm-env density, where SHRINKING is
                     the regression; lower-is-better unless "direction" says
                     otherwise, wall-clock unless "clock" is "sim"

Other fields (counts, bytes, nested payloads such as the chaos reports) are
kept for reference and not guarded.

Records carry a "host" object ({"jobs": N, "cores": N, "compiler": "..."}).
A wall-clock ratio across machines is noise, not a regression, so each clock
has its own baseline rule:

  * A wall-clock row's baseline is the *best* committed wall-clock entry
    under the same name from the same host (same cores and compiler): the
    lowest value when lower is better, the highest when higher is better.
    A regression committed into the trajectory therefore never becomes the
    bar the next record is held to. Records without a host stamp were taken
    on an unknown machine and are not used. With no same-host entry the row
    is skipped with a notice. "jobs" is informational: the same machine at a
    different sweep width is comparable.
  * A virtual-time row's baseline is the *latest* committed entry with a
    guarded number under the same name, whatever its clock (so an old
    "real_ns" baseline pairs with a "sim_ns" row of the same name), from any
    host: virtual-time numbers depend only on the model, and a deliberate
    model change resets them.

The check fails when the candidate is worse than max_ratio times the
baseline in the metric's bad direction: candidate/baseline when lower is
better, baseline/candidate when higher is better. Benchmarks with no
committed baseline pass with a note: they gain a baseline when their record
lands in BENCH_micro.json.

Usage:
    check_bench_regression.py --trajectory BENCH_micro.json \
        --candidate BENCH_micro_ci.json [--max-ratio 2.0]
"""

import argparse
import json
import sys


def load_records(path, missing_ok=False):
    """Parses a JSON-lines file. With missing_ok, a nonexistent file is an
    empty trajectory (first run on a fresh branch), not a crash. Malformed or
    truncated lines (a killed bench run, a botched merge) are skipped with a
    warning — one bad line must not invalidate the rest of the trajectory —
    but a file whose non-blank lines yield NO usable records is an error."""
    records = []
    try:
        f = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        if missing_ok:
            print(f"notice: {path} does not exist yet; every metric is new")
            return records
        raise SystemExit(f"{path}: no such file")
    nonblank = 0
    with f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            nonblank += 1
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                print(f"warning: {path}:{line_no}: skipping invalid JSON: {e}",
                      file=sys.stderr)
    if nonblank > 0 and not records:
        raise SystemExit(
            f"{path}: {nonblank} line(s), none parseable — refusing to treat "
            "a corrupt file as an empty trajectory")
    return records


def metric_entries(record):
    """Yields (name, value, higher_is_better, wall_clock) for each benchmark
    that carries a guarded number (see the module docstring)."""
    for name, data in record.get("benchmarks", {}).items():
        if not isinstance(data, dict):
            continue
        if isinstance(data.get("real_ns"), (int, float)):
            yield name, float(data["real_ns"]), False, True
        elif isinstance(data.get("sim_ns"), (int, float)):
            yield name, float(data["sim_ns"]), False, False
        elif isinstance(data.get("value"), (int, float)):
            yield (name, float(data["value"]),
                   data.get("direction") == "higher_is_better",
                   data.get("clock") != "sim")


def host_key(record):
    """The parts of a record's host metadata that decide comparability.
    None when the record predates host stamping (machine unknown)."""
    host = record.get("host")
    if not isinstance(host, dict):
        return None
    return (host.get("cores"), host.get("compiler"))


def baselines(records):
    """Indexes the trajectory for compare(): per benchmark name, the latest
    guarded entry as (value, label, host), and the host-stamped wall-clock
    entries as {host: [(value, label), ...]}."""
    latest, wall_by_host = {}, {}
    for record in records:  # later lines overwrite earlier: latest entry wins
        label, host = record.get("label", "?"), host_key(record)
        for name, value, _, wall in metric_entries(record):
            latest[name] = (value, label, host)
            if wall and host is not None:
                wall_by_host.setdefault(name, {}).setdefault(host, []).append(
                    (value, label))
    return latest, wall_by_host


def compare(baselines, candidates, max_ratio):
    """Checks every guarded number of the candidate records against the
    baselines() index. Returns (rows, failures, skipped): one (name, value,
    baseline, ratio, note) row per number, the (name, ratio) pairs over
    max_ratio, and how many wall-clock rows had no same-host baseline."""
    latest, wall_by_host = baselines
    rows, failures, skipped = [], [], 0
    for record in candidates:
        cand_host = host_key(record)
        for name, value, higher, wall in metric_entries(record):
            clock = "wall" if wall else "sim"
            if name not in latest:
                rows.append((name, value, None, None, f"no baseline (new, {clock})"))
                continue
            if wall:
                same_host = wall_by_host.get(name, {}).get(cand_host)
                if not same_host:
                    _, last_label, last_host = latest[name]
                    rows.append((name, value, None, None,
                                 f"skipped: different host than every baseline "
                                 f"(latest '{last_label}': {last_host} vs {cand_host})"))
                    skipped += 1
                    continue
                best = max if higher else min
                base, base_label = best(same_host, key=lambda entry: entry[0])
            else:
                base, base_label, _ = latest[name]
            # Ratio in the metric's bad direction, so > max_ratio always
            # means "regressed" regardless of which way better points.
            if higher:
                ratio = base / value if value > 0 else float("inf")
            else:
                ratio = value / base if base > 0 else float("inf")
            verdict = "ok" if ratio <= max_ratio else "REGRESSED"
            arrow = "higher-is-better" if higher else "lower-is-better"
            rows.append((name, value, base, ratio,
                         f"{verdict} ({arrow}, {clock}) vs '{base_label}'"))
            if ratio > max_ratio:
                failures.append((name, ratio))
    return rows, failures, skipped


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trajectory", required=True,
                        help="committed JSON-lines trajectory (BENCH_micro.json)")
    parser.add_argument("--candidate", required=True,
                        help="fresh JSON-lines record from this run")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail if candidate/baseline exceeds this (default 2.0)")
    args = parser.parse_args()

    trajectory = load_records(args.trajectory, missing_ok=True)
    if not trajectory:
        print(f"notice: {args.trajectory} has no records; "
              "candidates pass and seed the baseline when committed")
    candidates = load_records(args.candidate)
    if not candidates:
        raise SystemExit(f"{args.candidate}: no records")

    rows, failures, skipped_hosts = compare(baselines(trajectory), candidates,
                                            args.max_ratio)

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'benchmark'.ljust(width)}  {'candidate':>12}  {'baseline':>12}  {'ratio':>6}")
    for name, cand, base, ratio, note in rows:
        base_s = f"{base:12.0f}" if base is not None else " " * 12
        ratio_s = f"{ratio:6.2f}" if ratio is not None else " " * 6
        print(f"{name.ljust(width)}  {cand:12.0f}  {base_s}  {ratio_s}  {note}")

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{args.max_ratio}x:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    if skipped_hosts:
        print(f"\nnotice: {skipped_hosts} wall-clock comparison(s) skipped — "
              "no baseline was recorded on this host (same cores and compiler)")
    print(f"\nOK: no benchmark regressed more than {args.max_ratio}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
