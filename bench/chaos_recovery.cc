// Chaos bench: availability and recovery latency under injected failures.
//
// For each seed, a 4-node TrEnv rack runs a Poisson workload while the
// FaultSchedule crashes one node mid-burst (with restart), degrades a CXL
// MHD port, and squeezes the keep-alive memory cap. Two failover modes are
// compared:
//   trenv-failover  — redeploy penalty 0: the crashed node's work restarts
//                     from the shared pool snapshot on a survivor
//   cold-redeploy   — conventional per-node deployment: every recovered
//                     invocation pays a snapshot pull before restarting
// A separate single-node section runs a TrEnv-RDMA testbed under a 30% link
// flap + 5% page corruption schedule to report the retry/backoff cost on
// the fetch path.
//
// Flags:
//   --seeds=a,b,c       comma-separated schedule seeds (default: 42)
//   --jobs=N            sweep threads; the report is byte-identical at any N
//   --shards=N          run racks through RunSharded (byte-identical report)
//   --bench-json=PATH   append a JSON-lines record to the BENCH trajectory
//   --bench-label=TEXT  label stored in the JSON record
//
// Everything printed to stdout is derived from virtual time and the seeds,
// so for a fixed --seeds list the report is bitwise-stable across runs and
// across --jobs values. Wall-clock (utc) appears only in the JSON file.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/platform/cluster.h"

namespace trenv {
namespace {

struct ChaosFlags {
  std::vector<uint64_t> seeds = {42};
  unsigned jobs = ThreadPool::DefaultThreads();
  // Rack runs route through RunSharded when > 1; the fault injector forces
  // an effective shard count of 1, so the report must stay byte-identical —
  // which makes this flag a determinism probe for the degraded path.
  uint32_t shards = 1;
  bench::Record record;
};

ChaosFlags ParseFlags(int argc, char** argv) {
  ChaosFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      flags.seeds.clear();
      std::stringstream list{std::string(arg.substr(8))};
      std::string item;
      while (std::getline(list, item, ',')) {
        if (!item.empty()) {
          flags.seeds.push_back(std::strtoull(item.c_str(), nullptr, 10));
        }
      }
      if (flags.seeds.empty()) {
        std::cerr << "invalid --seeds value: " << arg << "\n";
        std::exit(2);
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const int parsed = std::atoi(std::string(arg.substr(7)).c_str());
      if (parsed < 1) {
        std::cerr << "invalid --jobs value: " << arg << " (want an integer >= 1)\n";
        std::exit(2);
      }
      flags.jobs = static_cast<unsigned>(parsed);
    } else if (arg.rfind("--shards=", 0) == 0) {
      const int parsed = std::atoi(std::string(arg.substr(9)).c_str());
      if (parsed < 1) {
        std::cerr << "invalid --shards value: " << arg << " (want an integer >= 1)\n";
        std::exit(2);
      }
      flags.shards = static_cast<uint32_t>(parsed);
    } else if (!flags.record.TakeFlag(arg)) {
      std::cerr << "unknown flag: " << arg
                << " (supported: --seeds=a,b,c --jobs=<n> --shards=<n> "
                   "--bench-json=<file> --bench-label=<text>)\n";
      std::exit(2);
    }
  }
  return flags;
}

// The rack-level campaign every (seed, mode) run faces: one node dies a
// minute in and comes back 30 s later; the MHD port it shared degrades for
// the following minute; a memory-pressure window squeezes keep-alive caches.
FaultSchedule RackCampaign(uint64_t seed) {
  FaultSchedule faults;
  faults.seed = seed;
  faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Seconds(60),
                             SimTime::Zero() + SimDuration::Seconds(90), 1.0, kAnyTarget,
                             /*restart_after=*/SimDuration::Seconds(30)));
  faults.Add(LinkFaultWindow(FaultDomain::kCxlPortDegrade,
                             SimTime::Zero() + SimDuration::Seconds(90),
                             SimTime::Zero() + SimDuration::Seconds(150), 1.0,
                             /*severity=*/2.0));
  faults.Add(PoolPressureWindow(SimTime::Zero() + SimDuration::Seconds(100),
                                SimTime::Zero() + SimDuration::Seconds(140),
                                /*cap_scale=*/0.5));
  return faults;
}

Schedule RackWorkload(uint64_t seed) {
  Rng rng(seed ^ 0xC4A05);
  return MakePoissonWorkload({"JS", "DH", "IR", "CR"}, 8.0, SimDuration::Minutes(3), 0.4,
                             rng);
}

struct RackResult {
  bool ok = false;
  uint64_t accepted = 0;
  uint64_t completed = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t failovers = 0;
  uint64_t injections = 0;
  double recovery_p50_ms = 0;
  double recovery_p99_ms = 0;
  double e2e_mean_ms = 0;
  double e2e_p99_ms = 0;
};

RackResult RunRack(uint64_t seed, bool trenv_failover, uint32_t shards) {
  RackResult result;
  ClusterConfig config;
  config.nodes = 4;
  config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
  config.faults = RackCampaign(seed);
  // TrEnv restores the crashed node's work from the shared pool snapshot;
  // the conventional baseline re-pulls a full snapshot onto the survivor.
  config.failover.redeploy_penalty =
      trenv_failover ? SimDuration::Zero() : SimDuration::Millis(2500);
  Cluster cluster(config);
  if (!cluster.DeployTable4Functions().ok()) {
    return result;
  }
  const Schedule schedule = RackWorkload(seed);
  ScheduleStream arrivals(schedule);
  const Status run = cluster.RunSharded(arrivals, {.shards = shards});
  if (!run.ok()) {
    std::cerr << "chaos run failed: " << run << "\n";
    return result;
  }
  const FunctionMetrics agg = cluster.AggregateMetrics();
  const FaultInjector& injector = *cluster.fault_injector();
  result.ok = true;
  result.accepted = cluster.accepted_invocations();
  result.completed = agg.invocations;
  result.crashes = injector.crashes();
  result.restarts = injector.restarts();
  result.failovers = injector.failovers();
  result.injections = injector.injection_log().size();
  if (injector.recovery_ms().count() > 0) {
    result.recovery_p50_ms = injector.recovery_ms().Median();
    result.recovery_p99_ms = injector.recovery_ms().P99();
  }
  result.e2e_mean_ms = agg.e2e_ms.Mean();
  result.e2e_p99_ms = agg.e2e_ms.P99();
  return result;
}

struct RdmaResult {
  bool ok = false;
  uint64_t injections = 0;
  uint64_t retries = 0;
  uint64_t corrupt = 0;
  uint64_t exhausted = 0;
  double e2e_mean_ms = 0;
  double e2e_p99_ms = 0;
};

// Fetch-path section: a single TrEnv-RDMA node where the remote link flaps
// on 30% of fetch attempts and 5% of payloads arrive corrupted (caught by
// the dedup content hash and refetched).
RdmaResult RunRdmaDegraded(uint64_t seed, bool faulty) {
  RdmaResult result;
  FaultSchedule faults;
  faults.seed = seed;
  if (faulty) {
    faults.Add(LinkFaultWindow(FaultDomain::kRdmaFlap, SimTime::Zero(), SimTime::Max(),
                               /*probability=*/0.30));
    faults.Add(LinkFaultWindow(FaultDomain::kPageCorruption, SimTime::Zero(), SimTime::Max(),
                               /*probability=*/0.05));
  }
  obs::Registry stats;
  FaultInjector injector(faults, stats);
  Testbed bed(SystemKind::kTrEnvRdma);
  bed.BindFaultInjector(&injector);
  if (!bed.DeployTable4Functions().ok()) {
    return result;
  }
  Rng rng(seed ^ 0xD31A);
  Schedule schedule =
      MakePoissonWorkload({"JS", "DH", "IR"}, 6.0, SimDuration::Minutes(2), 0.3, rng);
  if (!bed.platform().Run(schedule).ok()) {
    return result;
  }
  const FunctionMetrics agg = bed.platform().metrics().Aggregate();
  result.ok = true;
  result.injections = injector.injection_log().size();
  result.retries = injector.retries();
  result.corrupt = injector.corrupt_fetches();
  result.exhausted = injector.exhausted_fetches();
  result.e2e_mean_ms = agg.e2e_ms.Mean();
  result.e2e_p99_ms = agg.e2e_ms.P99();
  return result;
}

// One (seed, mode) sweep slot: the two rack modes plus the two fetch-path
// runs, all independent simulations.
struct SeedResults {
  RackResult failover;
  RackResult redeploy;
  RdmaResult rdma_clean;
  RdmaResult rdma_faulty;
};

int RunBench(ChaosFlags& flags) {
  std::cout << "=== Chaos recovery: TrEnv failover vs cold re-deploy ===\n";

  const std::vector<SeedResults> results =
      bench::ParallelSweep(flags.seeds.size(), flags.jobs, [&](size_t i) {
        SeedResults r;
        r.failover = RunRack(flags.seeds[i], /*trenv_failover=*/true, flags.shards);
        r.redeploy = RunRack(flags.seeds[i], /*trenv_failover=*/false, flags.shards);
        r.rdma_clean = RunRdmaDegraded(flags.seeds[i], /*faulty=*/false);
        r.rdma_faulty = RunRdmaDegraded(flags.seeds[i], /*faulty=*/true);
        return r;
      });

  Table rack({"Seed", "Mode", "Accepted", "Completed", "Crashes", "Failovers",
              "Recovery p50 ms", "Recovery p99 ms", "E2E mean ms", "E2E p99 ms"});
  for (size_t i = 0; i < flags.seeds.size(); ++i) {
    for (const bool trenv : {true, false}) {
      const RackResult& r = trenv ? results[i].failover : results[i].redeploy;
      if (!r.ok) {
        std::cerr << "rack run failed for seed " << flags.seeds[i] << "\n";
        return 1;
      }
      if (r.accepted != r.completed) {
        std::cerr << "seed " << flags.seeds[i] << " lost invocations: accepted "
                  << r.accepted << " completed " << r.completed << "\n";
        return 1;
      }
      rack.AddRow({std::to_string(flags.seeds[i]),
                   trenv ? "trenv-failover" : "cold-redeploy", std::to_string(r.accepted),
                   std::to_string(r.completed), std::to_string(r.crashes),
                   std::to_string(r.failovers), Table::Num(r.recovery_p50_ms, 2),
                   Table::Num(r.recovery_p99_ms, 2), Table::Num(r.e2e_mean_ms, 2),
                   Table::Num(r.e2e_p99_ms, 2)});
      flags.record
          .Add("chaos/seed" + std::to_string(flags.seeds[i]) +
               (trenv ? "/trenv_failover" : "/cold_redeploy"))
          .Field("accepted", r.accepted)
          .Field("completed", r.completed)
          .Field("failovers", r.failovers)
          .Field("recovery_p50_ms", r.recovery_p50_ms)
          .Field("recovery_p99_ms", r.recovery_p99_ms)
          .Field("e2e_p99_ms", r.e2e_p99_ms);
    }
  }
  rack.Print(std::cout);
  std::cout << "Zero accepted invocations lost in any run; recovery latency is "
               "detection + re-dispatch (+ snapshot pull for cold-redeploy).\n\n";

  std::cout << "=== Fetch path under 30% RDMA flap + 5% corruption ===\n";
  Table rdma({"Seed", "Link", "Injections", "Retries", "Corrupt", "Exhausted",
              "E2E mean ms", "E2E p99 ms"});
  for (size_t i = 0; i < flags.seeds.size(); ++i) {
    for (const bool faulty : {false, true}) {
      const RdmaResult& r = faulty ? results[i].rdma_faulty : results[i].rdma_clean;
      if (!r.ok) {
        std::cerr << "rdma run failed for seed " << flags.seeds[i] << "\n";
        return 1;
      }
      rdma.AddRow({std::to_string(flags.seeds[i]), faulty ? "degraded" : "clean",
                   std::to_string(r.injections), std::to_string(r.retries),
                   std::to_string(r.corrupt), std::to_string(r.exhausted),
                   Table::Num(r.e2e_mean_ms, 2), Table::Num(r.e2e_p99_ms, 2)});
    }
    const RdmaResult& r = results[i].rdma_faulty;
    flags.record.Add("chaos/seed" + std::to_string(flags.seeds[i]) + "/rdma_degraded")
        .Field("injections", r.injections)
        .Field("retries", r.retries)
        .Field("corrupt", r.corrupt)
        .Field("e2e_p99_ms", r.e2e_p99_ms);
  }
  rdma.Print(std::cout);
  std::cout << "Retries are bounded by the retry policy (capped exponential backoff "
               "+ deadline); corruption is caught by the dedup content hash.\n";

  return flags.record.Append(flags.jobs);
}

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  trenv::ChaosFlags flags = trenv::ParseFlags(argc, argv);
  return trenv::RunBench(flags);
}
