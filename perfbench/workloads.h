// The benchmark's three workloads. Each one builds the simulator through its
// public API, runs one seeded trace, and returns what the run produced on
// both clocks: host time (what the simulator cost) and virtual time (what
// the model claims), plus the invocation ledger and a digest of everything
// the simulation observably produced.
#ifndef TRENV_PERFBENCH_WORKLOADS_H_
#define TRENV_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/span_log.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  // Small: a reduced trace and catalog with the same shape, for the
  // benchmark's own tests.
  bool small = false;
  // rack_burst only: RunSharded worker threads; the digest must not change.
  // A --trace 0 process uses one (two threads on a shared host time the
  // machine's load more than the simulator); a --trace 1 process uses two in
  // its untraced and traced repetitions alike, so the shard barrier is
  // measured and the tracing overhead compares runs of equal shard count.
  uint32_t shards = 1;
  // Non-null for the traced run: spans around every call into a layer.
  SpanLog* spans = nullptr;
};

struct RunResult {
  bool ok = false;
  std::string error;

  // Ledger: every accepted invocation ends completed or failed.
  uint64_t accepted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;

  // Host clock. The workload fills setup_s and run_s in process CPU seconds
  // and main.cc then calibrates them with the reference kernel (reference.h);
  // run_wall_s is the run on the wall clock, uncalibrated.
  double setup_s = 0;  // build + deploy + up-front trace generation (rack_burst:
                       // median of several back-to-back builds and deploys)
  double run_s = 0;    // first dispatch to drained
  double run_wall_s = 0;

  // Virtual clock.
  double e2e_p50_ms = 0;
  double e2e_p99_ms = 0;
  uint64_t e2e_samples = 0;
  double startup_p99_ms = 0;
  double sim_peak_mem_bytes = 0;
  uint64_t warm_envs_peak = 0;
  // Events the simulation's schedulers executed.
  uint64_t sim_events = 0;

  // Per-layer numbers. Counts and virtual times are filled on every run;
  // host-clock entries only on the traced run.
  std::map<std::string, double> layer;

  // Hash of every virtual-clock quantity and count the run produced.
  std::string digest;
};

using WorkloadFn = RunResult (*)(const RunOptions&);

struct Workload {
  const char* name;
  WorkloadFn run;
  // Independent traces per benchmark run; virtual-clock metrics are the
  // median over them.
  uint32_t subtraces;
};

const std::vector<Workload>& AllWorkloads();

}  // namespace perfbench

#endif  // TRENV_PERFBENCH_WORKLOADS_H_
