// Micro-operation benchmarks (google-benchmark): throughput of the hot
// simulator primitives — page-table bulk faults, mm-template attach, dedup
// ingestion, DES event dispatch and schedule/cancel churn, keep-alive churn,
// trace generation and the pool control plane's steady-state tick. These
// guard the simulator's own performance; the paper-figure benches above
// depend on them being fast.
//
// Besides the console output, --bench-json=PATH appends one JSON-lines
// record of the wall-clock timings to PATH (the BENCH_micro.json perf
// trajectory; see docs/performance.md), one median per benchmark when
// --benchmark_repetitions is above 1. Without it nothing is written.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/criu/deduplicator.h"
#include "src/criu/checkpointer.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/rdma_pool.h"
#include "src/mmtemplate/api.h"
#include "src/platform/cluster.h"
#include "src/platform/keep_alive_pool.h"
#include "src/platform/testbed.h"
#include "src/runtime/working_set.h"
#include "src/sim/cpu.h"
#include "src/simkernel/fault_handler.h"
#include "src/workload/arrival.h"

namespace trenv {
namespace {

void BM_PageTableMapLookup(benchmark::State& state) {
  PageTable table;
  PteFlags flags;
  flags.valid = true;
  uint64_t i = 0;
  for (auto _ : state) {
    table.MapRange((i % 1024) * 16, 16, flags, i * 16, i);
    benchmark::DoNotOptimize(table.Lookup((i % 1024) * 16 + 7));
    ++i;
  }
}
BENCHMARK(BM_PageTableMapLookup);

void BM_BulkCowFault64MiB(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    FrameAllocator frames(4ULL * kGiB);
    CxlPool cxl(4ULL * kGiB);
    BackendRegistry backends;
    backends.Register(&cxl);
    FaultHandler handler(&frames, &backends);
    MmStruct mm;
    const uint64_t npages = BytesToPages(64 * kMiB);
    (void)mm.AddVma(MakeAnonVma(0x10000000, npages * kPageSize, Protection::ReadWrite(), "img"));
    auto base = cxl.AllocatePages(npages);
    (void)cxl.WriteContent(*base, npages, 1);
    PteFlags flags;
    flags.valid = true;
    flags.write_protected = true;
    flags.pool = PoolKind::kCxl;
    mm.page_table().MapRange(AddrToVpn(0x10000000), npages, flags, *base, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(handler.AccessRange(mm, 0x10000000, npages, true));
  }
}
BENCHMARK(BM_BulkCowFault64MiB);

void BM_MmtAttach855MiB(benchmark::State& state) {
  CxlPool cxl(8ULL * kGiB);
  BackendRegistry backends;
  backends.Register(&cxl);
  MmtApi api(&backends);
  const uint64_t npages = BytesToPages(855 * kMiB);
  MmtId id = api.MmtCreate("ir");
  (void)api.MmtAddMap(id, 0x10000000, npages * kPageSize, Protection::ReadWrite(), true, -1, 0);
  auto base = cxl.AllocatePages(npages);
  (void)cxl.WriteContent(*base, npages, 7);
  (void)api.MmtSetupPt(id, 0x10000000, npages * kPageSize, *base, PoolKind::kCxl);
  for (auto _ : state) {
    MmStruct mm;
    benchmark::DoNotOptimize(api.MmtAttach(id, &mm));
  }
}
BENCHMARK(BM_MmtAttach855MiB);

// Page-table fault storm: a 64 MiB lazy RDMA image is bulk-write-faulted in
// 64-page chunks from both ends toward the middle (two advancing frontiers,
// the shape a warm restore's demand paging produces), then torn down. Every
// chunk is one AccessRange -> run split + splice + merge in the page table.
void BM_PageTableFaultStorm(benchmark::State& state) {
  FrameAllocator frames(8ULL * kGiB);
  RdmaPool rdma(8ULL * kGiB);
  BackendRegistry backends;
  backends.Register(&rdma);
  FaultHandler handler(&frames, &backends);
  const uint64_t npages = BytesToPages(64 * kMiB);
  const Vaddr base_addr = 0x10000000;
  MmStruct mm;
  (void)mm.AddVma(MakeAnonVma(base_addr, npages * kPageSize, Protection::ReadWrite(), "img"));
  auto pool_base = rdma.AllocatePages(npages);
  (void)rdma.WriteContent(*pool_base, npages, 1);
  PteFlags lazy;
  lazy.valid = false;
  lazy.pool = PoolKind::kRdma;
  const uint64_t chunk = 64;
  const uint64_t nchunks = npages / chunk;
  for (auto _ : state) {
    mm.page_table().MapRange(AddrToVpn(base_addr), npages, lazy, *pool_base, 1);
    for (uint64_t c = 0; c < nchunks; ++c) {
      const uint64_t idx = (c % 2 == 0) ? c / 2 : nchunks - 1 - c / 2;
      benchmark::DoNotOptimize(
          handler.AccessRange(mm, base_addr + idx * chunk * kPageSize, chunk, true));
    }
    mm.page_table().UnmapRange(AddrToVpn(base_addr), npages);
    frames.FreePages(frames.used_pages());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(npages));
}
BENCHMARK(BM_PageTableFaultStorm);

// ContentMap churn: the write/partial-erase/read/full-erase cycle a pool's
// content store sees as consolidated chunks come and go with keep-alive
// turnover.
void BM_ContentMapChurn(benchmark::State& state) {
  const uint64_t nchunks = 128;
  const uint64_t chunk = 512;
  for (auto _ : state) {
    ContentMap map;
    for (uint64_t i = 0; i < nchunks; ++i) {
      map.Write(i * chunk, chunk, static_cast<PageContent>(i * 100000));
    }
    for (uint64_t i = 1; i < nchunks; i += 2) {
      map.Erase(i * chunk + chunk / 4, chunk / 2);  // partial erase: two splits
    }
    for (uint64_t i = 0; i < nchunks; ++i) {
      benchmark::DoNotOptimize(map.Read(i * chunk + 7));
    }
    for (uint64_t i = 0; i < nchunks; ++i) {
      map.Erase(i * chunk, chunk);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(nchunks));
}
BENCHMARK(BM_ContentMapChurn);

// Full warm-restore cycle on the TrEnv engine: repurpose a pooled sandbox,
// restore process state, mmt_attach, run one invocation's page work, retire.
// This is the per-invocation unit the figure benches simulate millions of.
void BM_RestoreInvoke(benchmark::State& state) {
  Testbed bed(SystemKind::kTrEnvCxl);
  if (!bed.DeployTable4Functions().ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  FrameAllocator frames(64ULL * kGiB);
  PidAllocator pids;
  RestoreContext ctx;
  ctx.frames = &frames;
  ctx.backends = &bed.backends();
  ctx.pids = &pids;
  const FunctionProfile* profile = FindTable4Function("JS");
  for (auto _ : state) {
    auto outcome = bed.engine().Restore(*profile, ctx);
    if (!outcome.ok()) {
      state.SkipWithError("restore failed");
      return;
    }
    benchmark::DoNotOptimize(bed.engine().OnExecute(*profile, *outcome->instance, ctx));
    bed.engine().OnExecuteDone(*outcome->instance);
    bed.engine().Retire(std::move(outcome->instance), ctx);
  }
}
BENCHMARK(BM_RestoreInvoke);

// One warm instance's per-invocation page work, repeated: the execution path
// every warm start pays. The registry is bound the way the platform binds
// its own, so the fault counters are live (BM_RestoreInvoke binds none).
void BM_WarmInvoke(benchmark::State& state) {
  obs::Registry stats;
  Testbed bed(SystemKind::kTrEnvCxl);
  if (!bed.DeployTable4Functions().ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  FrameAllocator frames(64ULL * kGiB);
  PidAllocator pids;
  RestoreContext ctx;
  ctx.frames = &frames;
  ctx.backends = &bed.backends();
  ctx.pids = &pids;
  ctx.stats = &stats;
  const FunctionProfile* profile = FindTable4Function("JS");
  auto outcome = bed.engine().Restore(*profile, ctx);
  if (!outcome.ok()) {
    state.SkipWithError("restore failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.engine().OnExecute(*profile, *outcome->instance, ctx));
    bed.engine().OnExecuteDone(*outcome->instance);
  }
  bed.engine().Retire(std::move(outcome->instance), ctx);
}
BENCHMARK(BM_WarmInvoke);

// Working-set recording hot path: the PageRunSet absorbing a first
// invocation's touch stream. Two advancing frontiers of 64-page runs (the
// shape a warm restore's demand paging produces) plus a scatter of single
// pages that split and re-merge runs.
void BM_WorkingSetRecord(benchmark::State& state) {
  const uint64_t npages = BytesToPages(64 * kMiB);
  const uint64_t chunk = 64;
  const uint64_t nchunks = npages / chunk;
  for (auto _ : state) {
    PageRunSet set;
    for (uint64_t c = 0; c < nchunks; ++c) {
      const uint64_t idx = (c % 2 == 0) ? c / 2 : nchunks - 1 - c / 2;
      set.Add(idx * chunk, chunk);
    }
    for (uint64_t i = 0; i < 1024; ++i) {
      set.Add(npages + (i * 79) % 4096, 1);
    }
    benchmark::DoNotOptimize(set.pages());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(nchunks + 1024));
}
BENCHMARK(BM_WorkingSetRecord);

// Warm-restore cycle against an RDMA-homed template with working-set prefetch
// enabled: every Restore plans the recorded runs, maps them, and issues the
// coalesced bulk fetches through the engine's NIC queue; OnExecute then finds
// the pages resident. The first platform invocation (outside the timed loop)
// records the working set.
void BM_TrEnvBatchedPrefetch(benchmark::State& state) {
  PlatformConfig config;
  config.trenv_prefetch = true;
  Testbed bed(SystemKind::kTrEnvRdma, config);
  if (!bed.DeployTable4Functions().ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  (void)bed.platform().Run(Schedule{{SimTime::Zero(), "JS"}});
  bed.platform().EvictAllIdle();
  FrameAllocator frames(64ULL * kGiB);
  PidAllocator pids;
  RestoreContext ctx;
  ctx.frames = &frames;
  ctx.backends = &bed.backends();
  ctx.pids = &pids;
  const FunctionProfile* profile = FindTable4Function("JS");
  for (auto _ : state) {
    // Advance virtual time past the previous iteration's NIC window so each
    // restore sees an idle queue (steady state, not self-induced incast).
    ctx.now = ctx.now + SimDuration::Seconds(1);
    auto outcome = bed.engine().Restore(*profile, ctx);
    if (!outcome.ok()) {
      state.SkipWithError("restore failed");
      return;
    }
    benchmark::DoNotOptimize(bed.engine().OnExecute(*profile, *outcome->instance, ctx));
    bed.engine().OnExecuteDone(*outcome->instance);
    bed.engine().Retire(std::move(outcome->instance), ctx);
  }
}
BENCHMARK(BM_TrEnvBatchedPrefetch);

// Keep-alive churn: TakeWarm/Put cycles with periodic expiry sweeps — the
// park/reuse pattern every completed invocation drives. The argument is the
// parked population (four warm instances per function): /64 is a small
// node, /8192 one holding thousands of warm environments, where a sweep
// that walks every parked entry dominates.
void BM_KeepAliveChurn(benchmark::State& state) {
  KeepAlivePool pool(SimDuration::Minutes(10),
                     [](std::unique_ptr<FunctionInstance>) {});
  std::vector<FunctionId> functions;
  for (int64_t i = 0; i < state.range(0) / 4; ++i) {
    functions.push_back(InternFunction("fn-" + std::to_string(i)));
  }
  SimTime now;
  for (const FunctionId fn : functions) {
    for (int i = 0; i < 4; ++i) {
      pool.Put(std::make_unique<FunctionInstance>(fn, nullptr), now);
    }
  }
  uint64_t hits = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      const FunctionId fn = functions[(static_cast<size_t>(i) * 7) % functions.size()];
      now = now + SimDuration::Millis(1);
      auto inst = pool.TakeWarm(fn);
      if (inst != nullptr) {
        ++hits;
        pool.Put(std::move(inst), now);
      }
      if (i % 64 == 0) {
        pool.ExpireStale(now - SimDuration::Minutes(5));
      }
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KeepAliveChurn)->Arg(64)->Arg(8192);

// W2 diurnal trace generation over a catalog of N function names: one Zipf
// pick per base arrival, so the per-draw cost scales with the catalog size
// unless the sampler's CDF is built once per trace.
void BM_DiurnalGenerate(benchmark::State& state) {
  std::vector<std::string> functions;
  for (int64_t i = 0; i < state.range(0); ++i) {
    functions.push_back("fn-" + std::to_string(i));
  }
  size_t arrivals = 0;
  for (auto _ : state) {
    Rng rng(1);
    const Schedule schedule = MakeDiurnalWorkload(functions, DiurnalOptions{}, rng);
    arrivals += schedule.size();
    benchmark::DoNotOptimize(schedule.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(arrivals));
}
BENCHMARK(BM_DiurnalGenerate)->Arg(8192);

void BM_SnapshotDedupIngest(benchmark::State& state) {
  FunctionProfile profile;
  profile.name = "bench-fn";
  profile.language = "python";
  profile.image_bytes = 128 * kMiB;
  uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    CxlPool cxl(8ULL * kGiB);
    TieredPool tiered;
    tiered.AddTier(&cxl);
    SnapshotDedupStore store(&tiered);
    profile.name = "bench-fn" + std::to_string(i++);
    FunctionSnapshot snapshot = Checkpoint(profile);
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.Store(snapshot));
  }
}
BENCHMARK(BM_SnapshotDedupIngest);

// Full event lifecycle — schedule 1000 timers at interleaved deadlines, then
// dispatch them all. This is what every simulated invocation pays per event:
// one ScheduleAt/ScheduleAfter plus one dispatch.
void BM_EventSchedulerDispatch(benchmark::State& state) {
  EventScheduler sched;
  int sink = 0;
  for (auto _ : state) {
    const SimTime base = sched.now();
    for (int i = 0; i < 1000; ++i) {
      // Interleaved deadlines (not arrival order) so the queue really sorts.
      sched.ScheduleAt(base + SimDuration::Micros((i * 37) % 1000), [&sink] { ++sink; });
    }
    sched.RunUntilIdle();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventSchedulerDispatch);

// Keep-alive churn: platform.cc re-arms expiry timers on every completion
// (schedule, later cancel, reschedule — 8 call sites feed this pattern), so
// most scheduled events never run. 64 outstanding timers, 2000 re-arms per
// iteration, periodic clock advances between them.
void BM_EventSchedulerChurn(benchmark::State& state) {
  EventScheduler sched;
  int sink = 0;
  std::vector<EventId> expiry(64, kInvalidEventId);
  for (auto _ : state) {
    for (int i = 0; i < 2000; ++i) {
      const size_t slot = static_cast<size_t>(i) % expiry.size();
      if (expiry[slot] != kInvalidEventId) {
        sched.Cancel(expiry[slot]);
      }
      expiry[slot] = sched.ScheduleAfter(SimDuration::Minutes(10), [&sink] { ++sink; });
      if (i % 16 == 0) {
        sched.RunUntil(sched.now() + SimDuration::Millis(50));
      }
    }
    sched.RunUntilIdle();
    expiry.assign(expiry.size(), kInvalidEventId);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventSchedulerChurn);

void BM_FairShareCpuChurn(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    EventScheduler sched;
    FairShareCpu cpu(&sched, 16);
    state.ResumeTiming();
    for (int i = 0; i < 200; ++i) {
      cpu.Submit(SimDuration::Millis(5 + i % 7), [] {});
    }
    sched.RunUntilIdle();
  }
}
BENCHMARK(BM_FairShareCpuChurn);

// The pool control plane on an idle rack: perfbench rack_chaos's rack (8
// workers, 16 pool nodes, replication 2, a 32768-page rebalance budget) with
// 256 Table-4 clones that declare their base function's image (content_tag),
// which gives 859 shards. Each iteration advances the rack 500 ms, which
// runs one rebalance tick over every shard and one heartbeat tick.
void BM_PoolCtlSteadyTick(benchmark::State& state) {
  ClusterConfig config;
  config.nodes = 8;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = 16;
  config.poolmgr.replication = 2;
  config.poolmgr.lease_ttl = SimDuration::Seconds(20);
  config.poolctl.enabled = true;
  config.poolctl.rebalance_budget_pages = 32768;
  Cluster rack(config);
  const std::vector<FunctionProfile> base = Table4Functions();
  for (uint32_t i = 0; i < 256; ++i) {
    FunctionProfile clone = base[i % base.size()];
    clone.content_tag = clone.name;
    clone.name = "f" + std::to_string(i) + "-" + clone.name;
    if (!rack.Deploy(clone).ok()) {
      state.SkipWithError("deploy failed");
      return;
    }
  }
  constexpr SimDuration kTick = SimDuration::Millis(500);
  SimTime now;
  // The first tick reconciles every shard once; time the ticks after it.
  for (int i = 0; i < 2; ++i) {
    now = now + kTick;
    rack.AdvanceClocksTo(now);
  }
  for (auto _ : state) {
    now = now + kTick;
    rack.AdvanceClocksTo(now);
  }
}
BENCHMARK(BM_PoolCtlSteadyTick);

// Files each benchmark's wall-clock timings in the record while delegating
// display to the console reporter. With --benchmark_repetitions above 1 only
// the median aggregate is filed, under the plain benchmark name, so the
// guard compares medians; a single run is filed as it is.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(bench::Record* record) : record_(record) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      const bool repeated = run.repetitions > 1;
      if (repeated && (run.run_type != Run::RT_Aggregate || run.aggregate_name != "median")) {
        continue;
      }
      // A median is counted in repetitions, a single run in iterations.
      record_->Add(run.run_name.str())
          .RealNs(run.GetAdjustedRealTime())
          .Field("cpu_ns", run.GetAdjustedCPUTime())
          .Field(repeated ? "repetitions" : "iterations",
                 repeated ? run.repetitions : run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::Record* record_;
};

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  // Peel off the record flags; everything else goes to google-benchmark
  // (which rejects unknown flags itself).
  trenv::bench::Record record;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!record.TakeFlag(argv[i])) {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  trenv::RecordingReporter reporter(&record);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return record.Append(std::thread::hardware_concurrency());
}
