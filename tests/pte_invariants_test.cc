// Randomized PTE flag invariants across the mm-template lifecycle: chunks
// bounce between tiers (promotion/demotion), templates are spliced with
// private local runs, and after every sweep each template's page table must
// still satisfy:
//
//   * remote()  <=>  the pool-id names a registered remote tier, and the
//     run's backing offset lies inside a chunk currently placed on exactly
//     that tier;
//   * valid mirrors the tier's byte-addressability (CXL pre-populated,
//     RDMA/NAS lazy), and remote template runs stay write-protected;
//   * the shared / owner / dirty bits (src/shstate/) never appear in a
//     template — MmtAttach enforces this and refuses to clone a dirty one.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/promotion.h"
#include "src/mempool/rdma_pool.h"
#include "src/mmtemplate/api.h"
#include "src/simkernel/mm_struct.h"

namespace trenv {
namespace {

class PteInvariantsTest : public ::testing::Test {
 protected:
  // A deliberately small CXL tier (twice the promotion policy's hot-tier
  // budget) so promotion sweeps hit capacity and the budget forces demotions
  // back out.
  PteInvariantsTest()
      : cxl_(2 * PromotionManager::kHotTierBudgetPages * kPageSize),
        rdma_(4 * kGiB),
        api_(&backends_) {
    backends_.Register(&cxl_);
    backends_.Register(&rdma_);
    tiered_.AddTier(&cxl_);
    tiered_.AddTier(&rdma_);
  }

  struct Chunk {
    PoolPlacement placement;
    Vaddr addr = 0;
  };

  Chunk MakeColdChunk(MmtId id, Vaddr addr, uint64_t npages, PageContent content) {
    auto base = rdma_.AllocatePages(npages);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(rdma_.WriteContent(*base, npages, content).ok());
    EXPECT_TRUE(
        api_.MmtAddMap(id, addr, npages * kPageSize, Protection::ReadWrite(), true, -1, 0)
            .ok());
    EXPECT_TRUE(api_.MmtSetupPt(id, addr, npages * kPageSize, *base, PoolKind::kRdma).ok());
    return Chunk{PoolPlacement{PoolKind::kRdma, *base, npages}, addr};
  }

  // The invariant walk: every remote run in every template must point into a
  // chunk currently placed on the run's pool, with tier-consistent flags.
  void CheckTemplates(const std::vector<Chunk>& chunks, int round) {
    api_.registry().ForEach([&](MmTemplate& tmpl) {
      tmpl.mm().page_table().ForEachRun([&](Vpn vpn, const PteRun& run) {
        SCOPED_TRACE("round " + std::to_string(round) + " vpn " + std::to_string(vpn));
        EXPECT_FALSE(run.flags.shared);
        EXPECT_FALSE(run.flags.owner);
        EXPECT_FALSE(run.flags.dirty);
        if (!run.flags.remote()) {
          return;  // spliced private pages; local frames, no tier invariant
        }
        EXPECT_TRUE(run.flags.write_protected);
        ASSERT_NE(run.backing_base, kNoBacking);
        MemoryBackend* backend = backends_.Get(run.flags.pool);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(run.flags.valid, backend->byte_addressable());
        bool inside_matching_chunk = false;
        for (const Chunk& chunk : chunks) {
          if (chunk.placement.kind == run.flags.pool &&
              run.backing_base >= chunk.placement.base &&
              run.backing_base + run.npages <= chunk.placement.base + chunk.placement.npages) {
            inside_matching_chunk = true;
            break;
          }
        }
        // A run whose pool-id disagrees with where its chunk actually lives
        // means a promotion/demotion left a stale PTE behind.
        EXPECT_TRUE(inside_matching_chunk)
            << "pool " << static_cast<int>(run.flags.pool) << " backing "
            << run.backing_base;
      });
    });
  }

  CxlPool cxl_;
  RdmaPool rdma_;
  BackendRegistry backends_;
  TieredPool tiered_;
  MmtApi api_;
};

TEST_F(PteInvariantsTest, RandomizedPromotionDemotionSpliceKeepsFlagsConsistent) {
  PromotionManager manager(&tiered_, &api_.registry());

  Rng rng(0x9e3779b9);
  std::vector<Chunk> chunks;
  std::vector<MmtId> templates;
  constexpr Vaddr kBase = 0x40000000;
  // Chunks of 8..32 units: the hot-tier budget holds ~2-3 of them, which
  // forces constant churn.
  constexpr uint64_t kUnit = PromotionManager::kHotTierBudgetPages / 64;
  constexpr uint64_t kSlotBytes = 32 * kUnit * kPageSize;
  for (uint32_t t = 0; t < 3; ++t) {
    const MmtId id = api_.MmtCreate("fn" + std::to_string(t));
    templates.push_back(id);
    for (uint32_t c = 0; c < 4; ++c) {
      const uint64_t npages = (8 + rng.NextU64() % 25) * kUnit;
      const Vaddr addr = kBase + (t * 4 + c) * kSlotBytes;
      chunks.push_back(MakeColdChunk(id, addr, npages, 0x1000 * (t * 4 + c + 1)));
    }
  }

  for (int round = 0; round < 60; ++round) {
    // Random heat: some chunks earn promotion, idle ones decay toward the
    // demotion threshold.
    for (Chunk& chunk : chunks) {
      if (rng.NextDouble() < 0.5) {
        manager.RecordAccess(chunk.placement, 1 + rng.NextU64() % 16);
      }
    }
    // Occasional splice: a private local run punched into the middle of a
    // template chunk (the CoW shape), splitting the remote run around it.
    if (rng.NextDouble() < 0.4) {
      const Chunk& chunk = chunks[rng.NextU64() % chunks.size()];
      if (chunk.placement.npages > 4) {
        const MmtId id = templates[rng.NextU64() % templates.size()];
        auto tmpl = api_.registry().Lookup(id);
        ASSERT_TRUE(tmpl.ok());
        // Only splice the template that actually maps this chunk's window.
        if ((*tmpl)->mm().FindVma(chunk.addr) != nullptr) {
          const uint64_t offset = 1 + rng.NextU64() % (chunk.placement.npages - 2);
          PteFlags local;
          local.valid = true;
          local.write_protected = false;
          local.pool = PoolKind::kLocalDram;
          (*tmpl)->mm().page_table().MapRange(AddrToVpn(chunk.addr) + offset, 1, local,
                                              /*backing_base=*/round + 1,
                                              /*content_base=*/0xbeef);
        }
      }
    }
    const auto moves = manager.Sweep();
    for (const auto& move : moves) {
      for (Chunk& chunk : chunks) {
        if (chunk.placement.kind == move.from.kind &&
            chunk.placement.base == move.from.base &&
            chunk.placement.npages == move.from.npages) {
          chunk.placement = move.to;
        }
      }
    }
    CheckTemplates(chunks, round);
  }
  // The sweep loop must have actually moved chunks both ways, or the test
  // exercised nothing.
  EXPECT_GT(manager.promoted_chunks(), 0u);
  EXPECT_GT(manager.demoted_chunks(), 0u);
}

TEST_F(PteInvariantsTest, AttachRefusesTemplateWithSharedRegionBits) {
  const MmtId id = api_.MmtCreate("poisoned");
  Chunk chunk = MakeColdChunk(id, 0x40000000, 8, 0x42);
  auto tmpl = api_.registry().Lookup(id);
  ASSERT_TRUE(tmpl.ok());
  MmStruct target;
  ASSERT_TRUE(api_.MmtAttach(id, &target).ok());  // clean template attaches

  // Poison one PTE with an shstate owner bit; the next attach must refuse.
  PteFlags poisoned;
  poisoned.valid = true;
  poisoned.write_protected = false;
  poisoned.pool = chunk.placement.kind;
  poisoned.shared = true;
  poisoned.owner = true;
  (*tmpl)->mm().page_table().MapRange(AddrToVpn(chunk.addr), 1, poisoned,
                                      chunk.placement.base, 0x42);
  MmStruct second;
  auto attach = api_.MmtAttach(id, &second);
  EXPECT_FALSE(attach.ok());
  // And the failed attach left the target untouched.
  EXPECT_EQ(second.page_table().mapped_pages(), 0u);
}

}  // namespace
}  // namespace trenv
