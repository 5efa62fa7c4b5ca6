// Sharded discrete-event core scale sweep: shards x nodes x trace size.
//
// One rack, one fixed-seed Poisson trace pulled lazily from an ArrivalStream
// (the trace is never materialized — peak RSS stays flat as --invocations
// grows), executed once per requested shard count through
// Cluster::RunSharded. The bench is both a benchmark and a determinism gate:
//
//   stdout  — ONE canonical run report (full-precision fingerprint of every
//             externally observable quantity) plus a verdict line per shard
//             count. Byte-identical at any --shards/--jobs setting; CI diffs
//             the bytes of a --shards=1 run against a --shards=4 run.
//   stderr  — wall-clock, speedup vs the slowest=1-shard run, epoch count,
//             barrier overhead, and ru_maxrss. Host-dependent; never diffed.
//
// Any fingerprint mismatch between shard counts exits 1. The wall-clock
// speedup is reported always and enforced only when --require-speedup=X is
// given AND the machine has at least as many cores as shards (a 1-core CI
// container cannot demonstrate parallel speedup, only determinism).
//
// Flags:
//   --nodes=N            rack size (default 8)
//   --shards=a,b,c       shard counts to sweep (default 1,2,4)
//   --invocations=N      trace length (default 200000)
//   --lookahead-ms=X     conservative-lookahead window (default 20;
//                        0 = one barrier per arrival, exactly Run())
//   --require-speedup=X  fail unless the largest shard count achieves X×
//                        (skipped with a notice on machines with fewer cores)
//   --bench-json=PATH    append a JSON-lines record (with host metadata)
//   --bench-label=TEXT   label stored in the JSON record
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/platform/cluster.h"
#include "src/workload/arrival_stream.h"

namespace trenv {
namespace {

constexpr uint64_t kSeed = 42;
constexpr double kRatePerSec = 400.0;

std::vector<uint32_t> ParseCsv(const std::string& csv) {
  std::vector<uint32_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int v = std::atoi(item.c_str());
    if (v >= 1) {
      out.push_back(static_cast<uint32_t>(v));
    }
  }
  return out;
}

void FingerprintHistogram(std::ostringstream& out, const char* label, const Histogram& h) {
  out << ' ' << label << ":n=" << h.count();
  if (!h.empty()) {
    out << ",min=" << h.Min() << ",max=" << h.Max() << ",mean=" << h.Mean()
        << ",sd=" << h.Stddev() << ",p50=" << h.Median() << ",p99=" << h.P99();
  }
}

// Everything a run can observably produce, at full precision: any divergence
// in event order, placement, or RNG consumption shows up as a byte change.
std::string Fingerprint(Cluster& cluster) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "accepted=" << cluster.accepted_invocations() << '\n';
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    ServerlessPlatform& node = cluster.node(i);
    out << "node " << i << " failed=" << node.failed_invocations()
        << " frames=" << node.frames().used_bytes()
        << " frames_peak=" << node.frames().peak_used_bytes()
        << " mem_peak=" << node.metrics().peak_memory_bytes()
        << " fetch_cpu=" << node.metrics().fetch_cpu_seconds() << '\n';
    for (const auto& [fn, m] : node.metrics().per_function()) {
      out << "  fn " << fn << " inv=" << m.invocations << " warm=" << m.warm_starts
          << " cold=" << m.cold_starts << " rep=" << m.repurposed_starts;
      FingerprintHistogram(out, "e2e", m.e2e_ms);
      FingerprintHistogram(out, "startup", m.startup_ms);
      out << '\n';
    }
  }
  out << "pool=" << cluster.PoolBytes() << " dram=" << cluster.NodeDramBytes() << '\n';
  for (const auto& [name, counter] : cluster.registry().counters()) {
    out << "ctr " << name << '=' << counter->value() << '\n';
  }
  return out.str();
}

struct RunOutcome {
  bool ok = false;
  std::string fingerprint;
  double wall_s = 0;
  double barrier_s = 0;
  uint64_t epochs = 0;
  uint32_t effective_shards = 0;
  uint64_t accepted = 0;
};

RunOutcome RunOne(uint32_t nodes, uint32_t shards, uint64_t invocations, double lookahead_ms) {
  ClusterConfig config;
  config.nodes = nodes;
  // A short TTL keeps the restore path (the expensive shared-pool work each
  // shard parallelizes) hot instead of devolving into all-warm hits.
  config.node_config.keep_alive_ttl = SimDuration::Seconds(2);
  Cluster cluster(config);
  RunOutcome outcome;
  if (!cluster.DeployTable4Functions().ok()) {
    std::cerr << "deploy failed\n";
    return outcome;
  }
  // Duration chosen so the Poisson stream yields ~`invocations` arrivals;
  // same seed at every shard count => same trace, draw for draw.
  const SimDuration duration =
      SimDuration::FromSecondsF(static_cast<double>(invocations) / kRatePerSec);
  Rng rng(kSeed);
  PoissonArrivalStream stream({"JS", "DH", "IR", "CR", "PR"}, kRatePerSec, duration, 0.7,
                              &rng);
  ShardedRunOptions options;
  options.shards = shards;
  options.lookahead = SimDuration::FromMicrosF(lookahead_ms * 1000.0);
  const auto start = std::chrono::steady_clock::now();
  if (!cluster.RunSharded(stream, options).ok()) {
    std::cerr << "run failed at shards=" << shards << "\n";
    return outcome;
  }
  outcome.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                       .count();
  outcome.ok = true;
  outcome.fingerprint = Fingerprint(cluster);
  outcome.barrier_s = cluster.sharded_barrier_wait_seconds();
  outcome.epochs = cluster.sharded_epochs();
  outcome.effective_shards = cluster.sharded_effective_shards();
  outcome.accepted = cluster.accepted_invocations();
  return outcome;
}

uint64_t MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

int RunBench(bench::BenchEnv& env) {
  const uint32_t nodes = env.PositiveValue<uint32_t>("--nodes=", 8);
  const std::vector<uint32_t> shard_counts = ParseCsv(env.ExtraValue("--shards=", "1,2,4"));
  const uint64_t invocations = env.PositiveValue<uint64_t>("--invocations=", 200000);
  const double lookahead_ms = std::atof(env.ExtraValue("--lookahead-ms=", "20").c_str());
  const double require_speedup = std::atof(env.ExtraValue("--require-speedup=", "0").c_str());
  if (shard_counts.empty()) {
    std::cerr << "invalid --shards\n";
    return 2;
  }

  std::cout << "=== Sharded core: " << nodes << " nodes, ~" << invocations
            << " invocations, lookahead " << lookahead_ms << " ms ===\n";

  std::vector<RunOutcome> runs;
  for (const uint32_t shards : shard_counts) {
    const uint64_t rss_before = MaxRssKb();
    runs.push_back(RunOne(nodes, shards, invocations, lookahead_ms));
    const RunOutcome& r = runs.back();
    if (!r.ok) {
      return 1;
    }
    std::cerr << "shards=" << shards << " (effective " << r.effective_shards << "): "
              << std::fixed << std::setprecision(3) << r.wall_s << " s wall, "
              << r.epochs << " epochs, " << r.barrier_s << " s barrier wait, ru_maxrss "
              << MaxRssKb() << " KB (was " << rss_before << " KB)\n";
  }

  // The canonical report: one copy of the fingerprint (identical across the
  // sweep or we fail). Stdout must not mention the requested shard counts —
  // CI byte-diffs it between separate --shards=1 and --shards=4 processes —
  // so the per-shard verdicts go to stderr.
  std::cout << runs.front().fingerprint;
  bool identical = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    const bool match = runs[i].fingerprint == runs.front().fingerprint;
    identical = identical && match;
    std::cerr << "shards=" << shard_counts[i] << " accepted=" << runs[i].accepted
              << " fingerprint=" << (match ? "identical" : "DIVERGED") << '\n';
  }
  if (!identical) {
    std::cerr << "FAIL: sharded runs diverged — output must be byte-identical at any "
                 "--shards setting\n";
    return 1;
  }

  // Speedup relative to the 1-shard run (or the smallest swept count).
  bench::Record record(env);
  const double base_wall = runs.front().wall_s;
  double best_speedup = 1.0;
  uint32_t best_shards = shard_counts.front();
  for (size_t i = 0; i < runs.size(); ++i) {
    record.Add("sharded_scale/shards_" + std::to_string(shard_counts[i]))
        .RealNs(runs[i].wall_s * 1e9)
        .Field("epochs", runs[i].epochs)
        .Field("barrier_ns", static_cast<uint64_t>(runs[i].barrier_s * 1e9));
    const double speedup = runs[i].wall_s > 0 ? base_wall / runs[i].wall_s : 0.0;
    std::cerr << "speedup shards=" << shard_counts[i] << ": " << std::fixed
              << std::setprecision(2) << speedup << "x\n";
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_shards = shard_counts[i];
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  if (require_speedup > 0) {
    const uint32_t max_shards = *std::max_element(shard_counts.begin(), shard_counts.end());
    if (cores < max_shards) {
      std::cerr << "NOTICE: --require-speedup skipped — " << cores
                << " core(s) cannot drive " << max_shards << " shards in parallel\n";
    } else if (best_speedup < require_speedup) {
      std::cerr << "FAIL: best speedup " << best_speedup << "x (shards=" << best_shards
                << ") below required " << require_speedup << "x\n";
      return 1;
    }
  }

  record.Add("sharded_scale/best_speedup")
      .HigherIsBetter(best_speedup, bench::Record::Clock::kWall);
  return record.Append(env.jobs);
}

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  trenv::bench::BenchEnv env(argc, argv,
                             trenv::bench::Record::Flags(
                                 {{"--nodes=", "--nodes=<n>"},
                                  {"--shards=", "--shards=a,b,c"},
                                  {"--invocations=", "--invocations=<n>"},
                                  {"--lookahead-ms=", "--lookahead-ms=<x>"},
                                  {"--require-speedup=", "--require-speedup=<x>"}}));
  const int rc = trenv::RunBench(env);
  env.Finish();
  return rc;
}
