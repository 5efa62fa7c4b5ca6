// Figure 17: CDF of per-function end-to-end latency under the two
// representative workloads — W1 (bursty, inter-burst gap > keep-alive) and
// W2 (diurnal, tight 32 GiB memory cap) — across all six systems. The six
// system runs are independent simulations and execute as one ParallelSweep.
#include <iostream>

#include "bench/bench_util.h"

namespace trenv {
namespace {

const SystemKind kSystems[] = {SystemKind::kFaasd,       SystemKind::kCriu,
                               SystemKind::kReapPlus,    SystemKind::kFaasnapPlus,
                               SystemKind::kTrEnvCxl,    SystemKind::kTrEnvRdma};

void RunWorkload(const std::string& label, const Schedule& schedule, PlatformConfig config,
                 bench::BenchEnv& env) {
  PrintBanner(std::cout, "Figure 17 (" + label + "): E2E latency per system");
  std::cout << "invocations scheduled: " << schedule.size() << "\n";

  struct SystemResult {
    std::string name;
    FunctionMetrics aggregate;
    std::map<std::string, FunctionMetrics> per_function;
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<Testbed> bed;
  };
  const size_t n_systems = std::size(kSystems);
  std::vector<SystemResult> results =
      bench::ParallelSweep(n_systems, env.jobs, [&](size_t i) {
        const SystemKind kind = kSystems[i];
        SystemResult result;
        result.tracer = env.MakeRunTracer();
        PlatformConfig run_config = config;
        run_config.tracer = result.tracer.get();
        auto run = bench::RunContainerWorkload(kind, schedule, run_config, bench::Table4Names());
        result.name = SystemName(kind);
        result.aggregate = run.bed->platform().metrics().Aggregate();
        result.per_function = run.bed->platform().metrics().per_function();
        result.bed = std::move(run.bed);
        return result;
      });
  for (const auto& result : results) {
    env.AbsorbTracer(result.tracer.get());
    env.AbsorbRegistry(label + "." + result.name, result.bed->platform().metrics().registry());
  }

  Table table({"System", "n", "P50 (ms)", "P90 (ms)", "P99 (ms)", "mean (ms)"});
  for (const auto& result : results) {
    const auto& h = result.aggregate.e2e_ms;
    if (h.empty()) {
      continue;
    }
    table.AddRow({result.name, std::to_string(h.count()), Table::Num(h.Percentile(50)),
                  Table::Num(h.Percentile(90)), Table::Num(h.P99()), Table::Num(h.Mean())});
  }
  table.Print(std::cout);

  // Per-function P99 across systems (the vertical dotted lines of Fig 17).
  Table per_fn({"Func", "faasd", "CRIU", "REAP+", "FaaSnap+", "T-CXL", "T-RDMA"});
  for (const auto& fn : bench::Table4Names()) {
    std::vector<std::string> row{fn};
    for (const auto& result : results) {
      auto it = result.per_function.find(fn);
      row.push_back(it == result.per_function.end() || it->second.e2e_ms.empty()
                        ? "-"
                        : Table::Num(it->second.e2e_ms.P99()));
    }
    per_fn.AddRow(row);
  }
  std::cout << "\nPer-function P99 E2E latency (ms):\n";
  per_fn.Print(std::cout);

  // CDF series for a short function (DH) — the regime where TrEnv shines.
  std::cout << "\nCDF of DH latency (ms -> fraction):\n";
  for (const auto& result : results) {
    auto it = result.per_function.find("DH");
    if (it == result.per_function.end() || it->second.e2e_ms.empty()) {
      continue;
    }
    std::cout << "# system=" << result.name << "\n";
    for (const auto& [x, y] : it->second.e2e_ms.Cdf(12)) {
      std::cout << Table::Num(x) << " " << Table::Num(y, 3) << "\n";
    }
  }

  // Speedups, as the paper reports them.
  auto p99_of = [&](const std::string& name) -> double {
    for (const auto& result : results) {
      if (result.name == name) {
        return result.aggregate.e2e_ms.P99();
      }
    }
    return 0;
  };
  const double tcxl = p99_of("T-CXL");
  std::cout << "\nP99 speedup of T-CXL vs REAP+:   " << Table::Num(p99_of("REAP+") / tcxl, 2)
            << "x\n";
  std::cout << "P99 speedup of T-CXL vs FaaSnap+: "
            << Table::Num(p99_of("FaaSnap+") / tcxl, 2) << "x\n";
  std::cout << "P99 speedup of T-CXL vs CRIU:     " << Table::Num(p99_of("CRIU") / tcxl, 2)
            << "x\n";
}

void Run(bench::BenchEnv& env) {
  Rng rng(2024);
  BurstyOptions w1;
  w1.duration = SimDuration::Minutes(30);
  w1.burst_size = 20;
  Schedule schedule_w1 = MakeBurstyWorkload(bench::Table4Names(), w1, rng);
  PlatformConfig config_w1;
  RunWorkload("W1 bursty", schedule_w1, config_w1, env);

  DiurnalOptions w2;
  w2.duration = SimDuration::Minutes(30);
  w2.peak_rate_per_sec = 8.0;
  w2.trough_rate_per_sec = 0.5;
  Schedule schedule_w2 = MakeDiurnalWorkload(bench::Table4Names(), w2, rng);
  PlatformConfig config_w2;
  config_w2.soft_mem_cap_bytes = cost::kW2SoftMemCap;  // tight 32 GiB cap
  RunWorkload("W2 diurnal, 32 GiB cap", schedule_w2, config_w2, env);

  std::cout << "\nPaper reference: T-CXL achieves 1.11x-5.69x (W1/W2) P99 speedup vs REAP+ "
               "and 1.17x-18x vs FaaSnap+; faasd/CRIU are dominated by startup.\n";
}

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  trenv::bench::BenchEnv env(argc, argv);
  trenv::Run(env);
  env.Finish();
  return 0;
}
