// Figure 26: memory usage over time during execution of the Map-reduce and
// Blog-summary agents (10 concurrent instances), comparing E2B and TrEnv.
// Also reports the usage-x-duration integral (the memory-cost model).
#include <iostream>

#include "src/common/table.h"
#include "src/common/units.h"
#include "src/vm/vm_platform.h"

namespace trenv {
namespace {

struct TimelineResult {
  std::vector<std::pair<double, double>> series;  // (seconds, GiB)
  double integral_gib_s = 0;
  double peak_gib = 0;
};

TimelineResult RunTimeline(const VmSystemConfig& config, const std::string& agent) {
  AgentVmPlatform platform(config);
  for (const auto& profile : Table2Agents()) {
    (void)platform.DeployAgent(profile);
  }
  for (int i = 0; i < 10; ++i) {
    (void)platform.SubmitLaunch(SimTime::Zero() + SimDuration::Millis(i * 100), agent);
  }
  platform.RunToCompletion();
  TimelineResult result;
  result.peak_gib = platform.memory_gauge().peak() / static_cast<double>(kGiB);
  result.integral_gib_s = platform.memory_gauge().TimeIntegral(platform.scheduler().now()) /
                          static_cast<double>(kGiB);
  // Downsample the raw series to ~16 points.
  const auto& raw = platform.memory_series();
  const size_t stride = std::max<size_t>(1, raw.size() / 16);
  for (size_t i = 0; i < raw.size(); i += stride) {
    result.series.emplace_back(raw[i].first, raw[i].second / static_cast<double>(kGiB));
  }
  return result;
}

void Run() {
  PrintBanner(std::cout, "Figure 26: memory usage during execution (10 instances)");
  for (const std::string agent : {"Map reduce", "Blog summary"}) {
    TimelineResult e2b = RunTimeline(E2bConfig(), agent);
    TimelineResult trenv = RunTimeline(TrEnvSConfig(), agent);
    std::cout << "\n--- " << agent << " ---\n";
    std::cout << "# t_seconds E2B_GiB (sampled)\n";
    for (const auto& [t, gib] : e2b.series) {
      std::cout << Table::Num(t, 1) << ":" << Table::Num(gib, 2) << " ";
    }
    std::cout << "\n# t_seconds TrEnv_GiB (sampled)\n";
    for (const auto& [t, gib] : trenv.series) {
      std::cout << Table::Num(t, 1) << ":" << Table::Num(gib, 2) << " ";
    }
    std::cout << "\nPeak: E2B " << Table::Num(e2b.peak_gib, 2) << " GiB vs TrEnv "
              << Table::Num(trenv.peak_gib, 2) << " GiB\n";
    std::cout << "Memory cost (GiB x s): E2B " << Table::Num(e2b.integral_gib_s, 1)
              << " vs TrEnv " << Table::Num(trenv.integral_gib_s, 1) << " (saving "
              << Table::Pct(1.0 - trenv.integral_gib_s / e2b.integral_gib_s) << ")\n";
  }
  std::cout << "\nPaper reference: modelling memory cost as usage x duration, TrEnv saves "
               "over 50% of overall memory cost.\n";
}

}  // namespace
}  // namespace trenv

int main() {
  trenv::Run();
  return 0;
}
