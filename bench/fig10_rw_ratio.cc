// Figure 10: read-only vs written memory ratio of the serverless functions,
// measured the paper's way — restore one instance from its snapshot, run a
// complete invocation, and count the pages that were read vs written.
#include <iostream>

#include "bench/bench_util.h"

namespace trenv {
namespace {

void Run() {
  PrintBanner(std::cout, "Figure 10: read-only vs written page ratio per function");
  Testbed bed(SystemKind::kTrEnvCxl);
  if (!bed.DeployTable4Functions().ok()) {
    std::cerr << "deploy failed\n";
    return;
  }
  FrameAllocator frames(64ULL * kGiB);
  PidAllocator pids;
  obs::Registry stats;
  RestoreContext ctx;
  ctx.frames = &frames;
  ctx.backends = &bed.backends();
  ctx.pids = &pids;
  ctx.stats = &stats;

  Table table({"Func", "Pages read-only", "Pages written", "Read-only ratio"});
  for (const auto& profile : Table4Functions()) {
    auto outcome = bed.engine().Restore(profile, ctx);
    if (!outcome.ok()) {
      std::cerr << "restore failed for " << profile.name << "\n";
      continue;
    }
    // One complete invocation's page work: its CoW faults are the written
    // pages, its direct CXL loads the read-only ones.
    stats.Reset();
    auto overheads = bed.engine().OnExecute(profile, *outcome->instance, ctx);
    if (!overheads.ok()) {
      continue;
    }
    const uint64_t written = stats.GetCounter("faults.cow")->count();
    const uint64_t read_only = stats.GetCounter("reads.direct_remote")->count();
    const double ratio =
        read_only + written == 0
            ? 0
            : static_cast<double>(read_only) / static_cast<double>(read_only + written);
    table.AddRow({profile.name, std::to_string(read_only), std::to_string(written),
                  Table::Pct(ratio)});
    bed.engine().OnExecuteDone(*outcome->instance);
    bed.engine().Retire(std::move(outcome->instance), ctx);
  }
  table.Print(std::cout);
  std::cout << "Paper reference: 24% to 90% of pages used during execution are read-only "
               "(IFR at the low end, IR at the high end).\n";
}

}  // namespace
}  // namespace trenv

int main() {
  trenv::Run();
  return 0;
}
