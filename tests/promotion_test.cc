// Tests for the hot-chunk promotion policy across memory tiers.
#include <gtest/gtest.h>

#include "src/criu/trenv_engine.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/promotion.h"
#include "src/mempool/rdma_pool.h"
#include "src/mmtemplate/api.h"
#include "src/simkernel/fault_handler.h"

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

TEST_F(PromotionTest, ColdChunkPromotesAfterThreshold) {
  PromotionManager manager(&tiered_, &api_.registry(),
                           PromotionManager::Options{.promote_threshold = 3});
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 32, 0x7007);

  manager.RecordAccess(cold, 1);
  EXPECT_TRUE(manager.Sweep().empty());  // below threshold
  manager.RecordAccess(cold, 2);
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
  PromotionManager manager(&tiered_, &api_.registry(),
                           PromotionManager::Options{.promote_threshold = 1});
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 16, 0xCAFE);
  manager.RecordAccess(cold, 5);
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
  PromotionManager manager(&tiered_, &api_.registry(),
                           PromotionManager::Options{.promote_threshold = 1});
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 8, 0xBEAD);
  manager.RecordAccess(cold, 9);
  ASSERT_EQ(manager.Sweep().size(), 1u);
  // The TEMPLATE is rewritten; an mm attached before the sweep keeps its
  // lazy RDMA view until re-attached (templates are the unit of sharing).
  auto tmpl = api_.registry().Lookup(id);
  ASSERT_TRUE(tmpl.ok());
  auto pte = (*tmpl)->page_table().Lookup(AddrToVpn(kAddr));
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->flags.pool, PoolKind::kCxl);
  EXPECT_TRUE(pte->flags.valid);
}

TEST_F(PromotionTest, HottestFirstAndSweepBounded) {
  PromotionManager manager(
      &tiered_, &api_.registry(),
      PromotionManager::Options{.promote_threshold = 1, .max_promotions_per_sweep = 1});
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement lukewarm = MakeColdChunk(id, kAddr, 8, 0x1);
  PoolPlacement blazing = MakeColdChunk(id, kAddr + kMiB, 8, 0x2);
  manager.RecordAccess(lukewarm, 2);
  manager.RecordAccess(blazing, 50);
  auto moves = manager.Sweep();
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from.base, blazing.base);  // hottest chosen first
  EXPECT_EQ(manager.tracked_chunks(), 1u);      // lukewarm still tracked
  EXPECT_EQ(manager.Sweep().size(), 1u);        // next sweep picks it up
}

TEST_F(PromotionTest, HotTierChunksNeverTracked) {
  PromotionManager manager(&tiered_, &api_.registry());
  manager.RecordAccess(PoolPlacement{PoolKind::kCxl, 0, 8}, 100);
  EXPECT_EQ(manager.tracked_chunks(), 0u);
}

TEST_F(PromotionTest, FullHotTierLeavesChunkInPlace) {
  // Fill CXL completely so promotion has nowhere to go.
  auto filler = cxl_.AllocatePages(cxl_.capacity_bytes() / kPageSize);
  ASSERT_TRUE(filler.ok());
  PromotionManager manager(&tiered_, &api_.registry(),
                           PromotionManager::Options{.promote_threshold = 1});
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 8, 0x3);
  manager.RecordAccess(cold, 10);
  EXPECT_TRUE(manager.Sweep().empty());
  // The template still points at RDMA and still works.
  auto tmpl = api_.registry().Lookup(id);
  auto pte = (*tmpl)->page_table().Lookup(AddrToVpn(kAddr));
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
  // With a demotion budget live, hot-tier chunks ARE tracked — but a sweep
  // must never try to promote them further.
  PromotionManager manager(&tiered_, &api_.registry(),
                           PromotionManager::Options{.promote_threshold = 1,
                                                     .hot_tier_budget_pages = 1024});
  manager.RecordAccess(PoolPlacement{PoolKind::kCxl, 0, 8}, 50);
  manager.RecordAccess(PoolPlacement{PoolKind::kCxl, 8, 8}, 50);
  EXPECT_EQ(manager.tracked_chunks(), 2u);
  EXPECT_TRUE(manager.Sweep().empty());  // under budget, nothing to move
  EXPECT_EQ(manager.promoted_chunks(), 0u);
  EXPECT_EQ(manager.demoted_chunks(), 0u);
}

TEST_F(PromotionTest, ZeroPromotionsPerSweepFreezesPlacement) {
  PromotionManager manager(
      &tiered_, &api_.registry(),
      PromotionManager::Options{.promote_threshold = 1, .max_promotions_per_sweep = 0});
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 8, 0x4);
  manager.RecordAccess(cold, 100);
  EXPECT_TRUE(manager.Sweep().empty());
  EXPECT_EQ(manager.tracked_chunks(), 1u);  // still eligible next time
  EXPECT_EQ(manager.promoted_chunks(), 0u);
}

TEST_F(PromotionTest, BudgetDrivenDemotionChurnsColdestFirst) {
  PromotionManager manager(&tiered_, &api_.registry(),
                           PromotionManager::Options{.promote_threshold = 1,
                                                     .heat_decay = 0.5,
                                                     .hot_tier_budget_pages = 8,
                                                     .demote_threshold = 2});
  MmtId id = api_.MmtCreate("fn");
  // Two 8-page chunks resident in the hot (CXL) tier, mapped by the template.
  auto MakeHotChunk = [&](Vaddr addr, PageContent content) {
    auto base = cxl_.AllocatePages(8);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(cxl_.WriteContent(*base, 8, content).ok());
    EXPECT_TRUE(api_.MmtAddMap(id, addr, 8 * kPageSize, Protection::ReadWrite(), true, -1, 0).ok());
    EXPECT_TRUE(api_.MmtSetupPt(id, addr, 8 * kPageSize, *base, PoolKind::kCxl).ok());
    return PoolPlacement{PoolKind::kCxl, *base, 8};
  };
  PoolPlacement busy = MakeHotChunk(kAddr, 0x10);
  PoolPlacement idle = MakeHotChunk(kAddr + kMiB, 0x20);
  manager.RecordAccess(busy, 10);
  manager.RecordAccess(idle, 1);

  // After decay: busy=5 (above demote_threshold), idle=0 (below). 16 hot
  // pages exceed the 8-page budget, so exactly the idle chunk moves down.
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
  auto pte = (*tmpl)->page_table().Lookup(AddrToVpn(kAddr + kMiB));
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->flags.pool, PoolKind::kRdma);
  EXPECT_FALSE(pte->flags.valid);
  // The busy chunk stayed hot and the tier now fits its budget.
  EXPECT_TRUE(manager.Sweep().empty());
}

TEST_F(PromotionTest, DemotedChunkEarnsItsWayBackUp) {
  PromotionManager manager(&tiered_, &api_.registry(),
                           PromotionManager::Options{.promote_threshold = 3,
                                                     .heat_decay = 0.5,
                                                     .hot_tier_budget_pages = 64,
                                                     .demote_threshold = 2});
  MmtId id = api_.MmtCreate("fn");
  PoolPlacement cold = MakeColdChunk(id, kAddr, 16, 0x7A7A);
  manager.RecordAccess(cold, 8);
  auto up = manager.Sweep();
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].to.kind, PoolKind::kCxl);

  // Idle sweeps decay the chunk to zero heat; shrink the budget by flooding
  // accesses on another hot chunk is unnecessary — just assert the demotion
  // path picks it up once the tier is over budget.
  PromotionManager::Options tight;
  tight.promote_threshold = 3;
  tight.heat_decay = 0.5;
  tight.hot_tier_budget_pages = 8;  // the 16-page chunk no longer fits
  tight.demote_threshold = 2;
  PromotionManager tight_manager(&tiered_, &api_.registry(), tight);
  tight_manager.RecordAccess(PoolPlacement{PoolKind::kCxl, up[0].to.base, 16}, 1);
  auto down = tight_manager.Sweep();  // decayed heat 0 < 2, over budget
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].to.kind, PoolKind::kRdma);
  // Round trip preserved the content and the template stayed attached.
  EXPECT_EQ(*rdma_.ReadContent(down[0].to.base + 7), 0x7A7Au + 7);
  auto tmpl = api_.registry().Lookup(id);
  auto pte = (*tmpl)->page_table().Lookup(AddrToVpn(kAddr));
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->flags.pool, PoolKind::kRdma);
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
  PromotionManager promotion(&tiered, &api.registry(),
                             PromotionManager::Options{.promote_threshold = 3,
                                                       .max_promotions_per_sweep = 64});
  TrEnvEngine engine(&factory, &pool, &api, &dedup);
  engine.EnablePromotion(&promotion, /*interval=*/4);

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
  // Execute repeatedly; sweeps run every 4 executions.
  for (int i = 0; i < 12; ++i) {
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
    cxl_pages += tmpl.page_table().CountPagesIf(
        [](const PteFlags& f) { return f.pool == PoolKind::kCxl; });
  });
  EXPECT_GT(cxl_pages, 0u);
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
