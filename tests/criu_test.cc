// Tests for the CRIU substrate: checkpointing, snapshot dedup, and all five
// restore engines' cost structure and page behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "src/common/cost_model.h"
#include "src/criu/checkpointer.h"
#include "src/criu/deduplicator.h"
#include "src/criu/lazy_engines.h"
#include "src/criu/trenv_engine.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/rdma_pool.h"

namespace trenv {
namespace {

FunctionProfile SmallFn(const std::string& name, const std::string& lang, double mem_mb) {
  FunctionProfile p;
  p.name = name;
  p.language = lang;
  p.image_bytes = static_cast<uint64_t>(mem_mb * static_cast<double>(kMiB));
  p.threads = 8;
  p.pages = {.read_fraction = 0.5, .write_fraction = 0.2, .working_set_fraction = 0.3};
  return p;
}

TEST(CheckpointerTest, SnapshotCoversImageSize) {
  FunctionSnapshot snap = Checkpoint(SmallFn("f1", "python", 100));
  EXPECT_EQ(snap.function, "f1");
  ASSERT_EQ(snap.processes.size(), 1u);
  // Region pages sum to roughly the image size (rounding slack allowed).
  const double pages = static_cast<double>(snap.TotalPages());
  const double expect = static_cast<double>(BytesToPages(100 * kMiB));
  EXPECT_NEAR(pages / expect, 1.0, 0.05);
  EXPECT_EQ(snap.TotalThreads(), 8u);
}

TEST(CheckpointerTest, SameLanguageSharesRuntimeContent) {
  FunctionSnapshot a = Checkpoint(SmallFn("fa", "python", 100));
  FunctionSnapshot b = Checkpoint(SmallFn("fb", "python", 100));
  FunctionSnapshot c = Checkpoint(SmallFn("fc", "nodejs", 100));
  auto find = [](const FunctionSnapshot& s, const std::string& substr) -> const MemoryRegion* {
    for (const auto& r : s.processes[0].regions) {
      if (r.name.find(substr) != std::string::npos) {
        return &r;
      }
    }
    return nullptr;
  };
  const MemoryRegion* rt_a = find(a, "runtime");
  const MemoryRegion* rt_b = find(b, "runtime");
  const MemoryRegion* rt_c = find(c, "runtime");
  ASSERT_TRUE(rt_a && rt_b && rt_c);
  EXPECT_EQ(rt_a->content_base, rt_b->content_base);   // same language
  EXPECT_NE(rt_a->content_base, rt_c->content_base);   // different language
  // Heaps are always unique.
  EXPECT_NE(find(a, "[heap]")->content_base, find(b, "[heap]")->content_base);
  // Common libs shared across languages.
  EXPECT_EQ(find(a, "libc")->content_base, find(c, "libc")->content_base);
}

TEST(CheckpointerTest, MultiProcessFunctionsGetHelperImages) {
  FunctionProfile p = SmallFn("multi", "python", 100);
  p.processes = 3;
  FunctionSnapshot snap = Checkpoint(p);
  EXPECT_EQ(snap.processes.size(), 3u);
}

class DedupTest : public ::testing::Test {
 protected:
  DedupTest() : cxl_(8 * kGiB) {
    tiered_.AddTier(&cxl_);
  }
  CxlPool cxl_;
  TieredPool tiered_;
};

TEST_F(DedupTest, IdenticalRegionsStoredOnce) {
  SnapshotDedupStore store(&tiered_);
  auto img_a = store.Store(Checkpoint(SmallFn("fa", "python", 100)));
  ASSERT_TRUE(img_a.ok());
  const uint64_t after_a = store.stored_unique_pages();
  auto img_b = store.Store(Checkpoint(SmallFn("fb", "python", 100)));
  ASSERT_TRUE(img_b.ok());
  const uint64_t added_by_b = store.stored_unique_pages() - after_a;
  // fb shares libc + python runtime with fa: ~43% of its image dedups away.
  EXPECT_LT(static_cast<double>(added_by_b), 0.65 * static_cast<double>(img_b->total_pages));
  EXPECT_LT(store.DedupRatio(), 0.8);
  // Storing fa again is a pure dedup hit.
  auto img_a2 = store.Store(Checkpoint(SmallFn("fa", "python", 100)));
  ASSERT_TRUE(img_a2.ok());
  EXPECT_EQ(img_a2->unique_pages, 0u);
}

TEST_F(DedupTest, PlacementsCoverRegionsInOrder) {
  SnapshotDedupStore store(&tiered_);
  auto image = store.Store(Checkpoint(SmallFn("f", "python", 100)));
  ASSERT_TRUE(image.ok());
  bool split = false;
  for (const auto& process : image->processes) {
    for (const auto& placed : process) {
      uint64_t chunk_pages = 0;
      for (const auto& chunk : placed.chunks) {
        EXPECT_LE(chunk.npages, SnapshotDedupStore::kChunkPages);
        chunk_pages += chunk.npages;
      }
      EXPECT_EQ(chunk_pages, placed.region.npages);
      split = split || placed.chunks.size() > 1;
    }
  }
  // Some region is larger than one chunk, so splitting was exercised.
  EXPECT_TRUE(split);
}

TEST_F(DedupTest, ContentActuallyInPool) {
  SnapshotDedupStore store(&tiered_);
  auto image = store.Store(Checkpoint(SmallFn("f", "python", 10)));
  ASSERT_TRUE(image.ok());
  const auto& placed = image->processes[0][0];
  const auto& chunk = placed.chunks[0];
  auto content = cxl_.ReadContent(chunk.offset);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, placed.region.content_base);
}

// Engine fixture with the full substrate.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : base_layer_(std::make_shared<FsLayer>("base")),
        cxl_(32 * kGiB),
        rdma_(32 * kGiB),
        frames_(64 * kGiB),
        factory_(base_layer_),
        mmt_(&backends_) {
    backends_.Register(&cxl_);
    backends_.Register(&rdma_);
    tiered_cxl_.AddTier(&cxl_);
    tiered_rdma_.AddTier(&rdma_);
    profile_ = SmallFn("fn", "python", 128);
    profile_.threads = 14;
  }

  RestoreContext Ctx() {
    RestoreContext ctx;
    ctx.frames = &frames_;
    ctx.backends = &backends_;
    ctx.pids = &pids_;
    return ctx;
  }

  std::shared_ptr<FsLayer> base_layer_;
  CxlPool cxl_;
  RdmaPool rdma_;
  FrameAllocator frames_;
  BackendRegistry backends_;
  TieredPool tiered_cxl_;
  TieredPool tiered_rdma_;
  SandboxFactory factory_;
  SandboxPool pool_;
  MmtApi mmt_;
  PidAllocator pids_;
  FunctionProfile profile_;
};

TEST_F(EngineTest, ColdStartMaterializesFullImage) {
  ColdStartEngine engine(&factory_, &pool_);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->startup.process_is_cpu);
  EXPECT_EQ(outcome->startup.process, profile_.bootstrap);
  EXPECT_GT(outcome->startup.sandbox.millis(), 100.0);
  // Whole image resident locally.
  const double resident = static_cast<double>(outcome->instance->ResidentLocalPages());
  EXPECT_NEAR(resident / static_cast<double>(profile_.ImagePages()), 1.0, 0.06);
}

TEST_F(EngineTest, CriuMemoryCopyDominatesItsStartup) {
  VanillaCriuEngine engine(&factory_, &pool_);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->startup.process_is_cpu);
  // 128 MiB at ~1 GiB/s: ~125 ms of memory restoration.
  EXPECT_NEAR(outcome->startup.memory.millis(), 125.0, 15.0);
  // CRIU restore is far cheaper than a cold bootstrap but pays the copy.
  EXPECT_LT(outcome->startup.process.millis(), 10.0);
}

TEST_F(EngineTest, ReapPrefetchesWorkingSetOnly) {
  ReapEngine engine(&factory_, &pool_, ReapEngine::Options{.pooled_netns = true});
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  const uint64_t overhead = outcome->instance->overhead_pages;
  const double resident =
      static_cast<double>(outcome->instance->ResidentLocalPages() - overhead);
  const double ws = profile_.pages.working_set_fraction * static_cast<double>(profile_.ImagePages());
  EXPECT_NEAR(resident / ws, 1.0, 0.1);
  // Execution pays userfaultfd costs for the rest.
  auto overheads = engine.OnExecute(profile_, *outcome->instance, ctx);
  ASSERT_TRUE(overheads.ok());
  EXPECT_GT(overheads->added_latency.millis(), 1.0);
  // Second invocation is mostly resident: far cheaper.
  auto second = engine.OnExecute(profile_, *outcome->instance, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->added_latency.nanos(), overheads->added_latency.nanos() / 5);
}

TEST_F(EngineTest, FaasnapStartsFasterButStillLazy) {
  ReapEngine reap(&factory_, &pool_, ReapEngine::Options{.pooled_netns = true});
  FaasnapEngine faasnap(&factory_, &pool_, /*pooled_netns=*/true);
  ASSERT_TRUE(reap.Prepare(profile_).ok());
  ASSERT_TRUE(faasnap.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto reap_outcome = reap.Restore(profile_, ctx);
  auto faasnap_outcome = faasnap.Restore(profile_, ctx);
  ASSERT_TRUE(reap_outcome.ok() && faasnap_outcome.ok());
  EXPECT_LT(faasnap_outcome->startup.memory, reap_outcome->startup.memory);
}

TEST_F(EngineTest, TrEnvColdFallbackUsesCloneInto) {
  SnapshotDedupStore dedup(&tiered_cxl_);
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  // Pool empty: falls back to cold creation, but with CLONE_INTO_CGROUP.
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->startup.sandbox_repurposed);
  // Memory restoration via attach is sub-millisecond even on the cold path.
  EXPECT_LT(outcome->startup.memory.millis(), 1.5);
  // No local memory materialized: everything maps to CXL.
  EXPECT_EQ(outcome->instance->ResidentLocalPages(), 0u);
  EXPECT_GT(outcome->instance->main_process()->mm().RemoteMappedPages(), 0u);
}

TEST_F(EngineTest, TrEnvRepurposeRoundTrip) {
  SnapshotDedupStore dedup(&tiered_cxl_);
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  FunctionProfile fn_a = SmallFn("fn-a", "python", 64);
  FunctionProfile fn_b = SmallFn("fn-b", "nodejs", 96);
  ASSERT_TRUE(engine.Prepare(fn_a).ok());
  ASSERT_TRUE(engine.Prepare(fn_b).ok());
  RestoreContext ctx = Ctx();

  auto first = engine.Restore(fn_a, ctx);
  ASSERT_TRUE(first.ok());
  // Retire parks the sandbox in the universal pool.
  engine.Retire(std::move(first->instance), ctx);
  EXPECT_EQ(pool_.idle_count(), 1u);
  EXPECT_EQ(frames_.used_pages(), 0u);  // all memory released

  // A DIFFERENT function repurposes the same sandbox.
  auto second = engine.Restore(fn_b, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->startup.sandbox_repurposed);
  EXPECT_EQ(second->instance->sandbox()->current_function(), InternFunction("fn-b"));
  // Repurposed startup is dramatically cheaper than the cold path:
  // ~1 ms sandbox + sub-ms attach + thread clones.
  EXPECT_LT(second->startup.Total().millis(), 10.0);
}

TEST_F(EngineTest, TrEnvCxlExecutionCowsOnlyWrites) {
  SnapshotDedupStore dedup(&tiered_cxl_);
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  auto overheads = engine.OnExecute(profile_, *outcome->instance, ctx);
  ASSERT_TRUE(overheads.ok());
  // CXL reads are direct: only written pages become local.
  const uint64_t resident = outcome->instance->ResidentLocalPages();
  const auto writable_estimate = static_cast<uint64_t>(
      profile_.pages.write_fraction * 0.35 * static_cast<double>(profile_.ImagePages()));
  EXPECT_GT(resident, 0u);
  EXPECT_LT(resident, profile_.ImagePages() / 3);
  EXPECT_GT(resident, writable_estimate / 4);
  // Memory-latency slowdown applies.
  EXPECT_GT(overheads->cpu_multiplier, 1.0);
  engine.OnExecuteDone(*outcome->instance);
}

TEST_F(EngineTest, TrEnvRdmaExecutionFaultsAndOpensStreams) {
  SnapshotDedupStore dedup(&tiered_rdma_);
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  auto overheads = engine.OnExecute(profile_, *outcome->instance, ctx);
  ASSERT_TRUE(overheads.ok());
  // RDMA fetches add real latency and CPU.
  EXPECT_GT(overheads->added_latency.millis(), 5.0);
  EXPECT_GT(overheads->added_cpu.micros(), 100.0);
  EXPECT_EQ(rdma_.active_streams(), 1u);
  engine.OnExecuteDone(*outcome->instance);
  EXPECT_EQ(rdma_.active_streams(), 0u);
}

TEST_F(EngineTest, TrEnvSharesPoolPagesAcrossInstances) {
  SnapshotDedupStore dedup(&tiered_cxl_);
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  const uint64_t pool_used_after_prepare = cxl_.used_bytes();
  RestoreContext ctx = Ctx();
  auto a = engine.Restore(profile_, ctx);
  auto b = engine.Restore(profile_, ctx);
  ASSERT_TRUE(a.ok() && b.ok());
  // Two instances, zero extra pool bytes: templates map the same image.
  EXPECT_EQ(cxl_.used_bytes(), pool_used_after_prepare);
  const auto* templates = engine.TemplatesFor(FunctionIdOf(profile_));
  ASSERT_NE(templates, nullptr);
  auto tmpl = mmt_.registry().Lookup((*templates)[0]);
  ASSERT_TRUE(tmpl.ok());
  EXPECT_EQ((*tmpl)->attach_count(), 2u);
}

TEST_F(EngineTest, AblationOrdering) {
  // Startup latency must strictly improve along Fig 21's optimization steps:
  // CRIU > Reconfig > Cgroup > full TrEnv.
  SnapshotDedupStore dedup(&tiered_cxl_);
  VanillaCriuEngine criu(&factory_, &pool_);
  TrEnvEngine reconfig(&factory_, &pool_, &mmt_, &dedup,
                       TrEnvEngine::Options{.repurpose_sandbox = true,
                                            .clone_into_cgroup = false,
                                            .use_mm_template = false});
  TrEnvEngine cgroup(&factory_, &pool_, &mmt_, &dedup,
                     TrEnvEngine::Options{.repurpose_sandbox = true,
                                          .clone_into_cgroup = true,
                                          .use_mm_template = false});
  SnapshotDedupStore dedup_full(&tiered_cxl_);
  TrEnvEngine full(&factory_, &pool_, &mmt_, &dedup_full);

  auto startup_of = [&](RestoreEngine& engine) {
    EXPECT_TRUE(engine.Prepare(profile_).ok());
    RestoreContext ctx = Ctx();
    // Warm the sandbox pool so repurposing engines hit it.
    auto warmup = engine.Restore(profile_, ctx);
    EXPECT_TRUE(warmup.ok());
    engine.Retire(std::move(warmup->instance), ctx);
    auto outcome = engine.Restore(profile_, ctx);
    EXPECT_TRUE(outcome.ok());
    SimDuration total = outcome->startup.Total();
    engine.Retire(std::move(outcome->instance), ctx);
    while (pool_.Take() != nullptr) {
    }
    return total;
  };

  const SimDuration criu_t = startup_of(criu);
  const SimDuration reconfig_t = startup_of(reconfig);
  const SimDuration cgroup_t = startup_of(cgroup);
  const SimDuration full_t = startup_of(full);
  EXPECT_GT(criu_t, reconfig_t);
  EXPECT_GT(reconfig_t, cgroup_t);
  EXPECT_GT(cgroup_t, full_t);
  // Full TrEnv: paper reports ~8-18 ms class startups.
  EXPECT_LT(full_t.millis(), 20.0);
}

// --- Lazy-engine boundary conditions -------------------------------------

// Finds the first span with `name` in `tracer`, or null.
const obs::Span* FindSpan(const obs::Tracer& tracer, std::string_view name) {
  for (const auto& span : tracer.spans()) {
    if (span.name == name) {
      return &span;
    }
  }
  return nullptr;
}

TEST_F(EngineTest, ReapEagerFractionZeroPrefetchesNothing) {
  ReapEngine engine(&factory_, &pool_,
                    ReapEngine::Options{.pooled_netns = true, .eager_fraction = 0.0});
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  obs::Tracer tracer;
  RestoreContext ctx = Ctx();
  ctx.tracer = &tracer;
  ctx.trace_loc = {tracer.RegisterProcess("test", [] { return SimTime(); }), 0};
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  // No eager load: the memory phase is free and only the fixed VM overhead
  // is resident. A zero-page prefetch must also leave no trace span behind.
  EXPECT_EQ(outcome->startup.memory, SimDuration::Zero());
  EXPECT_EQ(outcome->instance->ResidentLocalPages(), outcome->instance->overhead_pages);
  EXPECT_EQ(FindSpan(tracer, "vm.eager_prefetch"), nullptr);
  // Everything deferred to execution: the fault bill is the full invocation.
  auto overheads = engine.OnExecute(profile_, *outcome->instance, ctx);
  ASSERT_TRUE(overheads.ok());
  EXPECT_GT(overheads->added_latency.millis(), 1.0);
}

TEST_F(EngineTest, ReapEagerFractionOneLoadsExactlyTheRecordedSet) {
  ReapEngine engine(&factory_, &pool_,
                    ReapEngine::Options{.pooled_netns = true, .eager_fraction = 1.0});
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  obs::Tracer tracer;
  RestoreContext ctx = Ctx();
  ctx.tracer = &tracer;
  ctx.trace_loc = {tracer.RegisterProcess("test", [] { return SimTime(); }), 0};
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  // The span's eager_pages annotation must agree with what became resident.
  const uint64_t eager =
      outcome->instance->ResidentLocalPages() - outcome->instance->overhead_pages;
  EXPECT_GT(eager, 0u);
  const obs::Span* span = FindSpan(tracer, "vm.eager_prefetch");
  ASSERT_NE(span, nullptr);
  const auto* annotated = [&]() -> const int64_t* {
    for (const auto& [key, value] : span->args) {
      if (key == "eager_pages") {
        return std::get_if<int64_t>(&value);
      }
    }
    return nullptr;
  }();
  ASSERT_NE(annotated, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(*annotated), eager);
  EXPECT_GT(outcome->startup.memory, SimDuration::Zero());
}

TEST_F(EngineTest, ReapZeroWorkingSetEmitsNoPrefetchSpan) {
  FunctionProfile no_ws = SmallFn("no-ws", "python", 64);
  no_ws.pages.working_set_fraction = 0.0;
  ReapEngine engine(&factory_, &pool_, ReapEngine::Options{.pooled_netns = true});
  ASSERT_TRUE(engine.Prepare(no_ws).ok());
  obs::Tracer tracer;
  RestoreContext ctx = Ctx();
  ctx.tracer = &tracer;
  ctx.trace_loc = {tracer.RegisterProcess("test", [] { return SimTime(); }), 0};
  auto outcome = engine.Restore(no_ws, ctx);
  ASSERT_TRUE(outcome.ok());
  // An empty working set means a full eager fraction still loads zero pages.
  EXPECT_EQ(outcome->startup.memory, SimDuration::Zero());
  EXPECT_EQ(outcome->instance->ResidentLocalPages(), outcome->instance->overhead_pages);
  EXPECT_EQ(FindSpan(tracer, "vm.eager_prefetch"), nullptr);
}

// --- TrEnv working-set recording and batched prefetch ---------------------

TEST_F(EngineTest, TrEnvPrefetchOffByDefaultKeepsDemandFaulting) {
  SnapshotDedupStore dedup(&tiered_rdma_);
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto first = engine.Restore(profile_, ctx);
  ASSERT_TRUE(first.ok());
  auto first_exec = engine.OnExecute(profile_, *first->instance, ctx);
  ASSERT_TRUE(first_exec.ok());
  engine.OnExecuteDone(*first->instance);
  engine.Retire(std::move(first->instance), ctx);
  // Nothing recorded, nothing prefetched: the default engine is unchanged.
  EXPECT_EQ(engine.WorkingSetFor(FunctionIdOf(profile_)), nullptr);
  EXPECT_EQ(engine.prefetch_nic().total_ops(), 0u);
  auto second = engine.Restore(profile_, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->instance->ResidentLocalPages(), 0u);
  // The second invocation demand-faults the full set again.
  auto second_exec = engine.OnExecute(profile_, *second->instance, ctx);
  ASSERT_TRUE(second_exec.ok());
  EXPECT_GT(second_exec->added_latency.millis(), 5.0);
  engine.OnExecuteDone(*second->instance);
}

TEST_F(EngineTest, TrEnvRecordsWorkingSetOnFirstInvocation) {
  SnapshotDedupStore dedup(&tiered_rdma_);
  TrEnvEngine::Options opts;
  opts.prefetch = true;
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup, opts);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto outcome = engine.Restore(profile_, ctx);
  ASSERT_TRUE(outcome.ok());
  // Restore alone records nothing — the profile completes with the first
  // invocation's touches.
  EXPECT_EQ(engine.WorkingSetFor(FunctionIdOf(profile_)), nullptr);
  ASSERT_TRUE(engine.OnExecute(profile_, *outcome->instance, ctx).ok());
  engine.OnExecuteDone(*outcome->instance);
  const WorkingSetProfile* ws = engine.WorkingSetFor(FunctionIdOf(profile_));
  ASSERT_NE(ws, nullptr);
  EXPECT_TRUE(ws->complete);
  EXPECT_GT(ws->TotalPages(), 0u);
  EXPECT_GT(ws->TotalRuns(), 0u);
  EXPECT_LE(ws->TotalPages(), profile_.ImagePages());
  // Compact representation: orders of magnitude fewer runs than pages.
  EXPECT_LT(ws->TotalRuns() * 8, ws->TotalPages());
}

TEST_F(EngineTest, TrEnvSecondAttachPrefetchesTheRecordedSet) {
  SnapshotDedupStore dedup(&tiered_rdma_);
  TrEnvEngine::Options opts;
  opts.prefetch = true;
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup, opts);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto first = engine.Restore(profile_, ctx);
  ASSERT_TRUE(first.ok());
  auto first_exec = engine.OnExecute(profile_, *first->instance, ctx);
  ASSERT_TRUE(first_exec.ok());
  engine.OnExecuteDone(*first->instance);
  engine.Retire(std::move(first->instance), ctx);
  const WorkingSetProfile* ws = engine.WorkingSetFor(FunctionIdOf(profile_));
  ASSERT_NE(ws, nullptr);

  obs::Tracer tracer;
  RestoreContext traced = Ctx();
  traced.tracer = &tracer;
  traced.trace_loc = {tracer.RegisterProcess("test", [] { return SimTime(); }), 0};
  auto second = engine.Restore(profile_, traced);
  ASSERT_TRUE(second.ok());
  // Every recorded page is resident straight out of Restore, delivered as
  // coalesced bulk fetches through the engine's NIC queue.
  EXPECT_EQ(second->instance->ResidentLocalPages(), ws->TotalPages());
  EXPECT_GT(engine.prefetch_nic().total_ops(), 0u);
  EXPECT_EQ(engine.prefetch_nic().total_pages(), ws->TotalPages());
  const obs::Span* span = FindSpan(tracer, "trenv.prefetch");
  ASSERT_NE(span, nullptr);
  // The second invocation's demand-fault bill collapses: only residual cold
  // pages (touches outside the recorded set) still fault.
  auto second_exec = engine.OnExecute(profile_, *second->instance, traced);
  ASSERT_TRUE(second_exec.ok());
  EXPECT_LT(second_exec->added_latency.nanos(), first_exec->added_latency.nanos() / 4);
  engine.OnExecuteDone(*second->instance);
}

TEST_F(EngineTest, TrEnvPrefetchSkipsByteAddressableTemplates) {
  // T-CXL templates attach with zero lazy pages (reads go straight to CXL),
  // so the prefetcher must not issue anything even when enabled.
  SnapshotDedupStore dedup(&tiered_cxl_);
  TrEnvEngine::Options opts;
  opts.prefetch = true;
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup, opts);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  auto first = engine.Restore(profile_, ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(engine.OnExecute(profile_, *first->instance, ctx).ok());
  engine.OnExecuteDone(*first->instance);
  engine.Retire(std::move(first->instance), ctx);
  // A working set was still recorded (it feeds promotion)...
  EXPECT_NE(engine.WorkingSetFor(FunctionIdOf(profile_)), nullptr);
  auto second = engine.Restore(profile_, ctx);
  ASSERT_TRUE(second.ok());
  // ...but the second attach fetched nothing: CXL pages need no prefetch.
  EXPECT_EQ(engine.prefetch_nic().total_ops(), 0u);
  EXPECT_EQ(second->instance->ResidentLocalPages(), 0u);
  engine.OnExecuteDone(*second->instance);
}

// The integer a span carries under `key`, or -1 when it has none.
int64_t SpanInt(const obs::Span& span, std::string_view key) {
  for (const auto& [name, value] : span.args) {
    if (name == key) {
      const int64_t* v = std::get_if<int64_t>(&value);
      return v != nullptr ? *v : -1;
    }
  }
  return -1;
}

// The engine keeps one fault handler for all its invocations, and each
// invocation must still see the state a handler built for it alone would
// have: its writes store the same page contents (the write seed starts over)
// and the six fault counters add up to what the invocations touched, all six
// present even when every delta was zero. An invocation without a registry
// comes first, so the registry's binding is a rebind. The contents were
// recorded with a handler constructed per invocation.
TEST_F(EngineTest, TrEnvFaultPathStartsEveryInvocationAfresh) {
  const FunctionProfile& js = *FindTable4Function("JS");
  obs::Registry stats;
  obs::Tracer tracer;
  SnapshotDedupStore dedup(&tiered_cxl_);
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  ASSERT_TRUE(engine.Prepare(js).ok());
  RestoreContext unbound = Ctx();
  RestoreContext ctx = Ctx();
  // Bound the way ServerlessPlatform::MakeContext binds its registry.
  ctx.stats = &stats;
  ctx.tracer = &tracer;
  ctx.trace_loc = {tracer.RegisterProcess("test", [] { return SimTime(); }), 0};
  auto outcome = engine.Restore(js, ctx);
  ASSERT_TRUE(outcome.ok());
  const MmStruct& mm = outcome->instance->main_process()->mm();
  const Vpn heap = AddrToVpn(
      std::find_if(mm.vmas().begin(), mm.vmas().end(),
                   [](const auto& entry) { return entry.second.name == "[heap]"; })
          ->first);
  const auto content_of = [&] { return mm.page_table().Lookup(heap)->content; };

  // In every invocation the heap's first page takes the second written run.
  constexpr PageContent kHeapHeadAfterEachCall = 4056350825441902884u;
  ASSERT_TRUE(engine.OnExecute(js, *outcome->instance, unbound).ok());
  engine.OnExecuteDone(*outcome->instance);
  EXPECT_EQ(content_of(), kHeapHeadAfterEachCall);
  ASSERT_TRUE(engine.OnExecute(js, *outcome->instance, ctx).ok());
  engine.OnExecuteDone(*outcome->instance);
  EXPECT_EQ(content_of(), kHeapHeadAfterEachCall);
  ASSERT_TRUE(engine.OnExecute(js, *outcome->instance, ctx).ok());
  engine.OnExecuteDone(*outcome->instance);
  EXPECT_EQ(content_of(), kHeapHeadAfterEachCall);

  // Each traced invocation's "fault.touch" span carries its BulkAccessStats.
  std::map<std::string, int64_t> touched;
  int spans = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name != "fault.touch") {
      continue;
    }
    ++spans;
    for (const char* key : {"minor_faults", "major_faults", "cow_faults", "bytes_fetched",
                            "direct_remote", "direct_local"}) {
      ASSERT_GE(SpanInt(span, key), 0) << key;
      touched[key] += SpanInt(span, key);
    }
  }
  ASSERT_EQ(spans, 2);
  const std::pair<const char*, const char*> kCounters[] = {
      {"faults.minor", "minor_faults"},        {"faults.major", "major_faults"},
      {"faults.cow", "cow_faults"},            {"fetch.bytes", "bytes_fetched"},
      {"reads.direct_remote", "direct_remote"}, {"reads.direct_local", "direct_local"}};
  for (const auto& [counter, key] : kCounters) {
    const obs::Counter* found = stats.FindCounter(counter);
    ASSERT_NE(found, nullptr) << counter;
    EXPECT_EQ(found->value(), static_cast<double>(touched[key])) << counter;
  }
  // The unbound invocation took every CoW; the traced ones only load and
  // store directly, so the fault and fetch counters exist with value 0.
  EXPECT_EQ(touched["cow_faults"], 0);
  EXPECT_EQ(touched["major_faults"], 0);
  EXPECT_EQ(touched["bytes_fetched"], 0);
  EXPECT_GT(touched["direct_local"], 0);
  EXPECT_GT(touched["direct_remote"], 0);
}

TEST_F(EngineTest, TrEnvPromotionHeatsByRecordedWorkingSet) {
  // With promotion enabled (prefetch off), the first invocation still records
  // the working set, and subsequent heat accounting follows it: touched
  // chunks migrate to the byte-addressable tier, untouched chunks stay cold
  // in RDMA instead of being heated uniformly.
  TieredPool tiered;
  tiered.AddTier(&cxl_);
  tiered.AddTier(&rdma_);
  SnapshotDedupStore dedup(&tiered);
  PromotionManager promotion(&tiered, &mmt_.registry());
  TrEnvEngine engine(&factory_, &pool_, &mmt_, &dedup);
  engine.EnablePromotion(&promotion);
  ASSERT_TRUE(engine.Prepare(profile_).ok());
  RestoreContext ctx = Ctx();
  // Two sweeps.
  for (uint64_t i = 0; i < 2 * TrEnvEngine::kPromotionSweepInterval; ++i) {
    auto outcome = engine.Restore(profile_, ctx);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(engine.OnExecute(profile_, *outcome->instance, ctx).ok());
    engine.OnExecuteDone(*outcome->instance);
    engine.Retire(std::move(outcome->instance), ctx);
  }
  // Promotion alone arms the recorder — no prefetch needed.
  const WorkingSetProfile* ws = engine.WorkingSetFor(FunctionIdOf(profile_));
  ASSERT_NE(ws, nullptr);
  ASSERT_GT(ws->TotalPages(), 0u);
  ASSERT_LT(ws->TotalPages(), profile_.ImagePages());
  EXPECT_GT(promotion.promoted_chunks(), 0u);
  // Touched chunks moved into CXL; cold chunks are still RDMA-homed. Under
  // uniform heating everything would have crossed the threshold together.
  uint64_t cxl_pages = 0;
  uint64_t rdma_pages = 0;
  mmt_.registry().ForEach([&](MmTemplate& tmpl) {
    cxl_pages += tmpl.mm().page_table().CountPagesIf(
        [](const PteFlags& f) { return f.pool == PoolKind::kCxl; });
    rdma_pages += tmpl.mm().page_table().CountPagesIf(
        [](const PteFlags& f) { return f.pool == PoolKind::kRdma; });
  });
  EXPECT_GT(cxl_pages, 0u);
  EXPECT_GT(rdma_pages, 0u);
}

}  // namespace
}  // namespace trenv
