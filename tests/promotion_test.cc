// Tests for the hot-chunk promotion policy across memory tiers.
#include <gtest/gtest.h>

#include "src/criu/trenv_engine.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/promotion.h"
#include "src/mempool/rdma_pool.h"
#include "src/mmtemplate/api.h"
#include "src/platform/testbed.h"
#include "src/simkernel/fault_handler.h"
#include "src/workload/arrival.h"

namespace trenv {
namespace {

class PromotionTest : public ::testing::Test {
 protected:
  PromotionTest() : cxl_(1 * kGiB), rdma_(4 * kGiB), frames_(4 * kGiB), api_(&backends_) {
    backends_.Register(&cxl_);
    backends_.Register(&rdma_);
    tiered_.AddTier(&cxl_);
    tiered_.AddTier(&rdma_);
  }

  // Allocates an n-page chunk in RDMA holding content_base.. and builds a
  // template mapping it at `addr`.
  PoolPlacement MakeColdChunk(MmtId id, Vaddr addr, uint64_t npages, PageContent content) {
    auto base = rdma_.AllocatePages(npages);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(rdma_.WriteContent(*base, npages, content).ok());
    EXPECT_TRUE(
        api_.MmtAddMap(id, addr, npages * kPageSize, Protection::ReadWrite(), true, -1, 0).ok());
    EXPECT_TRUE(api_.MmtSetupPt(id, addr, npages * kPageSize, *base, PoolKind::kRdma).ok());
    return PoolPlacement{PoolKind::kRdma, *base, npages};
  }

  CxlPool cxl_;
  RdmaPool rdma_;
  FrameAllocator frames_;
  BackendRegistry backends_;
  TieredPool tiered_;
  MmtApi api_;
};

constexpr Vaddr kAddr = 0x40000000;
// Every sweep halves heat before it checks the threshold, so this many
// touches just reach it.
constexpr uint64_t kHot = 2 * PromotionManager::kPromoteThreshold;

TEST_F(PromotionTest, ColdChunkPromotesAfterThreshold) {
  PromotionManager manager(&tiered_, &api_.registry());
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 32, 0x7007);

  manager.RecordAccess(cold, kHot - 1);
  EXPECT_TRUE(manager.Sweep().empty());  // halved below the threshold
  // The halved heat carries over: (kHot / 2 - 1 + kHot / 2 + 1) / 2 reaches it.
  manager.RecordAccess(cold, kHot / 2 + 1);
  auto moves = manager.Sweep();
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from.kind, PoolKind::kRdma);
  EXPECT_EQ(moves[0].to.kind, PoolKind::kCxl);
  EXPECT_EQ(moves[0].templates_rewritten, 1u);
  EXPECT_GT(moves[0].copy_latency, SimDuration::Zero());
  // Content survived the migration.
  EXPECT_EQ(*cxl_.ReadContent(moves[0].to.base + 5), 0x7007u + 5);
  // Idempotent: nothing left to promote.
  EXPECT_TRUE(manager.Sweep().empty());
  EXPECT_EQ(manager.promoted_chunks(), 1u);
}

TEST_F(PromotionTest, PromotedTemplateServesDirectReads) {
  PromotionManager manager(&tiered_, &api_.registry());
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 16, 0xCAFE);
  manager.RecordAccess(cold, kHot);
  ASSERT_EQ(manager.Sweep().size(), 1u);

  // Fresh attach after the sweep: reads are now zero-fault CXL loads.
  MmStruct mm;
  ASSERT_TRUE(api_.MmtAttach(id, &mm).ok());
  obs::Registry stats;
  FaultHandler kernel(&frames_, &backends_, &stats);
  auto outcome = kernel.Access(mm, kAddr + 3 * kPageSize, /*write=*/false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, AccessKind::kDirectRemote);
  EXPECT_EQ(outcome->content, 0xCAFEu + 3);
  EXPECT_EQ(stats.GetCounter("faults.major")->count(), 0u);
}

TEST_F(PromotionTest, AlreadyAttachedTemplatesAreRewrittenToo) {
  PromotionManager manager(&tiered_, &api_.registry());
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 8, 0xBEAD);
  manager.RecordAccess(cold, kHot);
  ASSERT_EQ(manager.Sweep().size(), 1u);
  // The TEMPLATE is rewritten; an mm attached before the sweep keeps its
  // lazy RDMA view until re-attached (templates are the unit of sharing).
  auto tmpl = api_.registry().Lookup(id);
  ASSERT_TRUE(tmpl.ok());
  auto pte = (*tmpl)->mm().page_table().Lookup(AddrToVpn(kAddr));
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->flags.pool, PoolKind::kCxl);
  EXPECT_TRUE(pte->flags.valid);
}

TEST_F(PromotionTest, HottestFirstAndSweepBounded) {
  PromotionManager manager(&tiered_, &api_.registry());
  MmtId id = api_.MmtCreate("fn");
  // One more eligible chunk than a sweep may move; the lukewarm one is the
  // coolest of them and keeps enough heat to stay eligible after two halvings.
  PoolPlacement lukewarm = MakeColdChunk(id, kAddr, 8, 0x1);
  manager.RecordAccess(lukewarm, 2 * kHot);
  std::vector<PoolOffset> blazing;
  for (size_t i = 0; i < PromotionManager::kMaxPromotionsPerSweep; ++i) {
    PoolPlacement chunk = MakeColdChunk(id, kAddr + (i + 1) * kMiB, 8, 0x100 * (i + 2));
    manager.RecordAccess(chunk, 50 + 2 * i);  // distinct halved heats
    blazing.push_back(chunk.base);
  }
  auto moves = manager.Sweep();
  ASSERT_EQ(moves.size(), PromotionManager::kMaxPromotionsPerSweep);
  for (size_t i = 0; i < moves.size(); ++i) {
    // Hottest chosen first.
    EXPECT_EQ(moves[i].from.base, blazing[blazing.size() - 1 - i]);
  }
  // Every chunk is still tracked, the promoted ones under their CXL home.
  EXPECT_EQ(manager.tracked_chunks(), PromotionManager::kMaxPromotionsPerSweep + 1);
  moves = manager.Sweep();  // next sweep picks the lukewarm one up
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from.base, lukewarm.base);
}

TEST_F(PromotionTest, FullHotTierLeavesChunkInPlace) {
  // Fill CXL completely so promotion has nowhere to go.
  auto filler = cxl_.AllocatePages(cxl_.capacity_bytes() / kPageSize);
  ASSERT_TRUE(filler.ok());
  PromotionManager manager(&tiered_, &api_.registry());
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 8, 0x3);
  manager.RecordAccess(cold, kHot);
  EXPECT_TRUE(manager.Sweep().empty());
  // The template still points at RDMA and still works.
  auto tmpl = api_.registry().Lookup(id);
  auto pte = (*tmpl)->mm().page_table().Lookup(AddrToVpn(kAddr));
  EXPECT_EQ(pte->flags.pool, PoolKind::kRdma);
}

TEST_F(PromotionTest, SweepOnEmptyPoolIsANoOp) {
  // A manager over a tier-less pool must not dereference tier(0): accesses
  // are dropped and sweeps return nothing.
  TieredPool empty;
  PromotionManager manager(&empty, &api_.registry());
  manager.RecordAccess(PoolPlacement{PoolKind::kRdma, 0, 8}, 100);
  EXPECT_EQ(manager.tracked_chunks(), 0u);
  EXPECT_TRUE(manager.Sweep().empty());
}

TEST_F(PromotionTest, AllChunksAlreadyHotPromotesNothing) {
  // Hot-tier chunks ARE tracked (their heat ranks demotions), but a sweep
  // must never try to promote them further.
  PromotionManager manager(&tiered_, &api_.registry());
  manager.RecordAccess(PoolPlacement{PoolKind::kCxl, 0, 8}, 50);
  manager.RecordAccess(PoolPlacement{PoolKind::kCxl, 8, 8}, 50);
  EXPECT_EQ(manager.tracked_chunks(), 2u);
  EXPECT_TRUE(manager.Sweep().empty());  // under budget, nothing to move
  EXPECT_EQ(manager.promoted_chunks(), 0u);
  EXPECT_EQ(manager.demoted_chunks(), 0u);
}

TEST_F(PromotionTest, BudgetDrivenDemotionChurnsColdestFirst) {
  PromotionManager manager(&tiered_, &api_.registry());
  MmtId id = api_.MmtCreate("fn");
  // Two budget-sized chunks resident in the hot (CXL) tier, mapped by the
  // template: together they are twice the budget.
  constexpr uint64_t kPages = PromotionManager::kHotTierBudgetPages;
  auto MakeHotChunk = [&](Vaddr addr, PageContent content) {
    auto base = cxl_.AllocatePages(kPages);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(cxl_.WriteContent(*base, kPages, content).ok());
    EXPECT_TRUE(
        api_.MmtAddMap(id, addr, kPages * kPageSize, Protection::ReadWrite(), true, -1, 0).ok());
    EXPECT_TRUE(api_.MmtSetupPt(id, addr, kPages * kPageSize, *base, PoolKind::kCxl).ok());
    return PoolPlacement{PoolKind::kCxl, *base, kPages};
  };
  const Vaddr idle_addr = kAddr + kPages * kPageSize;
  PoolPlacement busy = MakeHotChunk(kAddr, 0x10);
  PoolPlacement idle = MakeHotChunk(idle_addr, 0x20);
  manager.RecordAccess(busy, 10);
  manager.RecordAccess(idle, 1);

  // After halving: busy=5 (above the demote threshold), idle=0 (below). The
  // hot pages exceed the budget, so exactly the idle chunk moves down.
  auto moves = manager.Sweep();
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from.base, idle.base);
  EXPECT_EQ(moves[0].from.kind, PoolKind::kCxl);
  EXPECT_EQ(moves[0].to.kind, PoolKind::kRdma);
  EXPECT_EQ(moves[0].templates_rewritten, 1u);
  EXPECT_EQ(manager.demoted_chunks(), 1u);
  // Content survived the downward copy.
  EXPECT_EQ(*rdma_.ReadContent(moves[0].to.base + 2), 0x20u + 2);
  // The template's PTEs now point at the lazy RDMA placement.
  auto tmpl = api_.registry().Lookup(id);
  auto pte = (*tmpl)->mm().page_table().Lookup(AddrToVpn(idle_addr));
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->flags.pool, PoolKind::kRdma);
  EXPECT_FALSE(pte->flags.valid);
  // The busy chunk stayed hot and the tier now fits its budget.
  EXPECT_TRUE(manager.Sweep().empty());
}

TEST_F(PromotionTest, DemotedChunkEarnsItsWayBackUp) {
  PromotionManager manager(&tiered_, &api_.registry());
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 16, 0x7A7A);
  manager.RecordAccess(cold, kHot);
  auto up = manager.Sweep();
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].to.kind, PoolKind::kCxl);

  // Flood the hot tier past its budget with a chunk that stays busy, so the
  // promoted chunk becomes the only demotion candidate once it cools.
  auto flood = cxl_.AllocatePages(PromotionManager::kHotTierBudgetPages);
  ASSERT_TRUE(flood.ok());
  manager.RecordAccess(
      PoolPlacement{PoolKind::kCxl, *flood, PromotionManager::kHotTierBudgetPages}, 1000);
  // Its heat halves from kPromoteThreshold to 2: still recently hot.
  EXPECT_TRUE(manager.Sweep().empty());
  auto down = manager.Sweep();  // halved to 1 < 2, and the tier is over budget
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].from.base, up[0].to.base);
  EXPECT_EQ(down[0].to.kind, PoolKind::kRdma);
  // Round trip preserved the content and the template stayed attached.
  EXPECT_EQ(*rdma_.ReadContent(down[0].to.base + 7), 0x7A7Au + 7);
  auto tmpl = api_.registry().Lookup(id);
  auto pte = (*tmpl)->mm().page_table().Lookup(AddrToVpn(kAddr));
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->flags.pool, PoolKind::kRdma);

  // Fresh heat brings it back up, though the tier is still over budget: the
  // flood chunk is too hot to churn out.
  manager.RecordAccess(down[0].to, kHot);
  auto again = manager.Sweep();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].to.kind, PoolKind::kCxl);
  EXPECT_EQ(manager.promoted_chunks(), 2u);
  EXPECT_EQ(manager.demoted_chunks(), 1u);
}

TEST(EnginePromotionTest, TieredEngineMigratesHotFunctionToCxl) {
  // A T-Tiered engine with promotion enabled: a function whose image landed
  // in RDMA gets pulled into CXL after enough executions.
  CxlPool cxl(8 * kGiB);
  RdmaPool rdma(8 * kGiB);
  BackendRegistry backends;
  backends.Register(&cxl);
  backends.Register(&rdma);
  TieredPool tiered;
  tiered.AddTier(&cxl);
  tiered.AddTier(&rdma);
  SnapshotDedupStore dedup(&tiered);
  SandboxFactory factory(std::make_shared<FsLayer>("base"));
  SandboxPool pool;
  MmtApi api(&backends);
  PromotionManager promotion(&tiered, &api.registry());
  TrEnvEngine engine(&factory, &pool, &api, &dedup);
  engine.EnablePromotion(&promotion);

  FunctionProfile profile;
  profile.name = "hot-fn";
  profile.language = "python";
  profile.image_bytes = 16 * kMiB;
  profile.threads = 4;
  ASSERT_TRUE(engine.Prepare(profile).ok());
  FrameAllocator frames(8 * kGiB);
  PidAllocator pids;
  RestoreContext ctx;
  ctx.frames = &frames;
  ctx.backends = &backends;
  ctx.pids = &pids;

  const uint64_t cxl_before = cxl.used_bytes();
  // Execute repeatedly; two sweeps run.
  for (uint64_t i = 0; i < 2 * TrEnvEngine::kPromotionSweepInterval; ++i) {
    auto outcome = engine.Restore(profile, ctx);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(engine.OnExecute(profile, *outcome->instance, ctx).ok());
    engine.OnExecuteDone(*outcome->instance);
    engine.Retire(std::move(outcome->instance), ctx);
  }
  EXPECT_GT(promotion.promoted_chunks(), 0u);
  EXPECT_GT(cxl.used_bytes(), cxl_before);
  // Templates now map (at least partly) to CXL.
  uint64_t cxl_pages = 0;
  api.registry().ForEach([&](MmTemplate& tmpl) {
    cxl_pages += tmpl.mm().page_table().CountPagesIf(
        [](const PteFlags& f) { return f.pool == PoolKind::kCxl; });
  });
  EXPECT_GT(cxl_pages, 0u);
}

// T-DRAM-live end to end, wired as bench/ablation_dram_hot runs it: every
// chunk starts on CXL, and the live policy earns node DRAM from observed heat.
TEST(DramLiveTestbedTest, PromotesHotChunksIntoNodeDramDeterministically) {
  auto run = []() -> std::pair<uint64_t, uint64_t> {
    PlatformConfig config;
    config.keep_alive_ttl = SimDuration::Seconds(1);  // every invocation restores
    Testbed bed(SystemKind::kTrEnvDramLive, config);
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    const PromotionManager* promotion = bed.promotion();
    if (promotion == nullptr) {
      ADD_FAILURE() << "T-DRAM-live runs without a promotion manager";
      return {};
    }
    // The dedup store's hotness override of 0 leaves node DRAM empty until a
    // sweep promotes into it.
    EXPECT_EQ(bed.tmpfs().used_bytes(), 0u);
    std::vector<std::string> names;
    for (const FunctionProfile& fn : Table4Functions()) {
      names.push_back(fn.name);
    }
    Rng rng(404);
    const Schedule schedule = MakePoissonWorkload(names, 5.0, SimDuration::Minutes(1), 0.3, rng);
    EXPECT_TRUE(bed.platform().Run(schedule).ok());
    EXPECT_GT(promotion->promoted_chunks(), 0u);
    EXPECT_GT(bed.tmpfs().used_bytes(), 0u);
    return {promotion->promoted_chunks(), promotion->demoted_chunks()};
  };
  EXPECT_EQ(run(), run());
}

TEST(RemapBackingTest, RewritesOnlyIntersectingSlices) {
  PageTable table;
  PteFlags rdma_lazy;
  rdma_lazy.valid = false;
  rdma_lazy.write_protected = true;
  rdma_lazy.pool = PoolKind::kRdma;
  // One run covering pool pages [100, 164); the moved chunk is [116, 132).
  table.MapRange(0, 64, rdma_lazy, 100, 0x9000);
  const PoolPlacement from{PoolKind::kRdma, 116, 16};
  const PoolPlacement to{PoolKind::kCxl, 500, 16};
  EXPECT_EQ(RemapBacking(table, from, to, /*to_byte_addressable=*/true), 16u);
  // Pages before/after the chunk untouched.
  EXPECT_EQ(table.Lookup(10)->flags.pool, PoolKind::kRdma);
  EXPECT_EQ(table.Lookup(40)->flags.pool, PoolKind::kRdma);
  // The slice moved, with backing and content progression intact.
  auto moved = table.Lookup(20);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->flags.pool, PoolKind::kCxl);
  EXPECT_TRUE(moved->flags.valid);
  EXPECT_EQ(moved->backing, 500u + 4);  // page 20 = chunk offset 4
  EXPECT_EQ(moved->content, 0x9000u + 20);
}

}  // namespace
}  // namespace trenv
