#!/usr/bin/env bash
# Runs every bench and example of one build and keeps each run's stdout, so
# two builds (a change and its parent) can be checked for byte-identical
# reports with a single `diff -r`.
#
# Usage: tools/bench_outputs.sh <build-dir> <out-dir>
#
# Every binary runs once at its default flags, and once more for each flag
# set the CI workflow (.github/workflows/ci.yml) passes it. Each run's stdout
# goes to <out-dir>/<binary>[.<flags>].txt. The runs execute with <out-dir>
# as the working directory, so files a binary writes to its cwd (fig4's
# trace.json and metrics.prom) land there too and are compared as well.
# stderr is discarded: it carries log warnings and wall-clock status lines.
#
# Skipped on purpose:
#   * micro_ops_bench: its stdout is Google Benchmark wall-clock timings,
#     which differ on every run.
#   * the CI flags --bench-json=/--bench-label=: they only append a
#     timestamped, host-stamped trajectory record and leave stdout unchanged,
#     so those CI runs are repeated here without the two flags.
#
# The repository benchmark is covered too. perfbench/ is built (Release)
# into <build-dir>/perfbench from the source tree that configured
# <build-dir>, read from its CMakeCache.txt, so a parent checkout's build
# compares against its own sources. Each workload in perfbench/spec.json runs
# once at its default seed and once at its held-out seed, with --seconds 0
# --trace 1, and <out-dir>/perfbench.<workload>.seed<seed>.json keeps what
# must not move: the sub-trace digests, attempted and failed, and every
# end-to-end and per-layer value whose clock in spec.json is not "host".
# The perfbench build and its six runs take under 3 minutes on 4 cores.
#
# Exits 1 if any run exits non-zero (a bench failing its own gate); its
# stdout file is still written.
#
# Example:
#   tools/bench_outputs.sh build /tmp/out-change
#   tools/bench_outputs.sh ../parent/build /tmp/out-parent
#   diff -r /tmp/out-parent /tmp/out-change
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

failed=0

# run <binary-path> [flags...]: one run, stdout to <out-dir>/<name>[.<flags>].txt.
run() {
  local bin=$1
  shift
  local name
  name=$(basename "$bin")
  local tag=""
  local flag
  for flag in "$@"; do
    tag+=".${flag#--}"
  done
  local rc=0
  (cd "$out" && "$bin" "$@" > "$out/$name$tag.txt" 2> /dev/null) || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL (exit $rc): $name $*" >&2
    failed=1
  fi
}

for bin in "$build"/bench/* "$build"/examples/*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  [[ $(basename "$bin") == micro_ops_bench ]] && continue
  run "$bin"
done

b="$build/bench"
# Flag sets from ci.yml, binary by binary.
run "$b/fig4_latency_breakdown" --trace-out=trace.json --metrics-out=metrics.prom
run "$b/fig17_w1_w2_cdf" --jobs=4
run "$b/fig21_opt_breakdown" --jobs=1
run "$b/fig21_opt_breakdown" --jobs=4
run "$b/ablation_dram_hot" --jobs=1
run "$b/ablation_dram_hot" --jobs=4
run "$b/fig27_stateful_pipeline" --jobs=1
run "$b/fig27_stateful_pipeline" --jobs=4
run "$b/sharded_scale" --nodes=8 --shards=1 --invocations=300000
run "$b/sharded_scale" --nodes=8 --shards=4 --invocations=300000
run "$b/sharded_scale" --nodes=8 --shards=4 --invocations=50000
run "$b/sharded_scale" --nodes=8 --shards=1,2,4 --invocations=300000
for jobs in "--jobs=1" "--jobs=2" "--jobs=4"; do
  run "$b/poolmgr_scale" "$jobs"
  run "$b/poolctl_churn" "$jobs"
done
run "$b/poolmgr_scale" --jobs=2 --shards=4
run "$b/poolctl_churn" --jobs=2 --shards=4
run "$b/chaos_recovery" --seeds=101,202 --jobs=2
run "$b/chaos_recovery" --seeds=101,202 --jobs=2 --shards=4
run "$b/chaos_recovery" --seeds=101,202,303 --jobs=1
run "$b/chaos_recovery" --seeds=101,202,303 --jobs=4
run "$b/peak_density" --functions=512 --minutes=8 --jobs=1
run "$b/peak_density" --functions=512 --minutes=8 --jobs=2
run "$b/peak_density" --functions=1024 --minutes=10 --jobs=2
run "$b/peak_density" --jobs=1
run "$b/peak_density" --jobs=4

# The repository benchmark, built from <build-dir>'s own source tree.
src=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$build/CMakeCache.txt")
pb="$build/perfbench"
if ! { cmake -S "$src/perfbench" -B "$pb" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$pb" -j"$(nproc)"; } > /dev/null; then
  echo "FAIL: perfbench build from $src" >&2
  exit 1
fi
spec="$src/perfbench/spec.json"
while read -r workload seed; do
  rc=0
  json=$("$pb/perfbench" --workload "$workload" --seed "$seed" --seconds 0 --trace 1 \
         < /dev/null 2> /dev/null | tail -n 1) || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL (exit $rc): perfbench $workload seed $seed" >&2
    failed=1
  fi
  python3 - "$spec" "$json" > "$out/perfbench.$workload.seed$seed.json" <<'PY'
import json, sys
spec = json.load(open(sys.argv[1]))
result = json.loads(sys.argv[2]) if sys.argv[2] else {}
kept = {key: result.get(key) for key in ("digests", "attempted", "failed")}
for section in ("end_to_end", "per_layer"):
    values = result.get(section, {})
    kept[section] = {m["name"]: values.get(m["name"])
                     for m in spec[section] if m["clock"] != "host"}
json.dump(kept, sys.stdout, indent=1, sort_keys=True)
print()
PY
done < <(python3 -c '
import json, sys
for name, w in json.load(open(sys.argv[1]))["workloads"].items():
    print(name, w["default_seed"])
    print(name, w["heldout_seed"])
' "$spec")

exit $failed
