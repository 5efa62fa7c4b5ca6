// Tests for the memory-pool substrate: block allocator, content map, the
// four backends, and tiered placement.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/cost_model.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/dram_pool.h"
#include "src/mempool/nas_pool.h"
#include "src/mempool/rdma_pool.h"
#include "src/mempool/tiered_pool.h"

namespace trenv {
namespace {

TEST(BlockAllocatorTest, AllocateAndFree) {
  BlockAllocator alloc(100);
  auto a = alloc.Allocate(30);
  ASSERT_TRUE(a.ok());
  auto b = alloc.Allocate(70);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(alloc.free_pages(), 0u);
  EXPECT_FALSE(alloc.Allocate(1).ok());
  ASSERT_TRUE(alloc.Free(*a, 30).ok());
  EXPECT_EQ(alloc.free_pages(), 30u);
  EXPECT_TRUE(alloc.Allocate(30).ok());
}

TEST(BlockAllocatorTest, CoalescingEnablesLargeRealloc) {
  BlockAllocator alloc(100);
  auto a = alloc.Allocate(25);
  auto b = alloc.Allocate(25);
  auto c = alloc.Allocate(25);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(alloc.Free(*a, 25).ok());
  ASSERT_TRUE(alloc.Free(*c, 25).ok());
  // Fragmented: largest extent is 25 + trailing 25.
  EXPECT_FALSE(alloc.Allocate(60).ok());
  ASSERT_TRUE(alloc.Free(*b, 25).ok());
  // Now fully coalesced.
  EXPECT_EQ(alloc.LargestFreeExtent(), 100u);
  EXPECT_TRUE(alloc.Allocate(100).ok());
}

TEST(BlockAllocatorTest, DoubleFreeDetected) {
  BlockAllocator alloc(100);
  auto a = alloc.Allocate(10);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 10).ok());
  EXPECT_EQ(alloc.Free(*a, 10).code(), StatusCode::kInvalidArgument);
}

TEST(BlockAllocatorTest, OutOfBoundsFreeRejected) {
  BlockAllocator alloc(100);
  EXPECT_EQ(alloc.Free(90, 20).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(alloc.Free(0, 0).code(), StatusCode::kInvalidArgument);
}

TEST(ContentMapTest, WriteReadErase) {
  ContentMap map;
  map.Write(100, 10, 5000);
  EXPECT_EQ(*map.Read(100), 5000u);
  EXPECT_EQ(*map.Read(109), 5009u);
  EXPECT_FALSE(map.Read(110).ok());
  EXPECT_EQ(map.stored_pages(), 10u);
  map.Erase(103, 4);
  EXPECT_EQ(map.stored_pages(), 6u);
  EXPECT_TRUE(map.Read(102).ok());
  EXPECT_FALSE(map.Read(103).ok());
  EXPECT_FALSE(map.Read(106).ok());
  EXPECT_EQ(*map.Read(107), 5007u);
}

TEST(ContentMapTest, OverwriteReplacesRange) {
  ContentMap map;
  map.Write(0, 10, 100);
  map.Write(5, 10, 900);
  EXPECT_EQ(*map.Read(4), 104u);
  EXPECT_EQ(*map.Read(5), 900u);
  EXPECT_EQ(*map.Read(14), 909u);
  EXPECT_EQ(map.stored_pages(), 15u);
}

TEST(ContentMapTest, EraseSpanningMultipleRuns) {
  ContentMap map;
  map.Write(0, 10, 100);
  map.Write(10, 10, 500);  // adjacent but distinct content: two runs
  map.Write(30, 10, 900);
  EXPECT_EQ(map.run_count(), 3u);
  // Erase a window cutting into the first run, swallowing the second whole,
  // crossing the gap, and cutting into the third.
  map.Erase(5, 30);
  EXPECT_EQ(map.run_count(), 2u);
  EXPECT_EQ(map.stored_pages(), 10u);
  EXPECT_EQ(*map.Read(4), 104u);
  EXPECT_FALSE(map.Read(5).ok());
  EXPECT_FALSE(map.Read(15).ok());
  EXPECT_FALSE(map.Read(34).ok());
  EXPECT_EQ(*map.Read(35), 905u);
  EXPECT_EQ(*map.Read(39), 909u);
}

TEST(ContentMapTest, PartialRunEraseAtBothEnds) {
  ContentMap map;
  map.Write(100, 20, 7000);
  // Front partial erase: run shrinks from the left.
  map.Erase(95, 8);  // covers [100, 103)
  EXPECT_FALSE(map.Read(102).ok());
  EXPECT_EQ(*map.Read(103), 7003u);
  EXPECT_EQ(map.stored_pages(), 17u);
  // Tail partial erase: run shrinks from the right.
  map.Erase(115, 10);  // covers [115, 120)
  EXPECT_EQ(*map.Read(114), 7014u);
  EXPECT_FALSE(map.Read(115).ok());
  EXPECT_EQ(map.stored_pages(), 12u);
  EXPECT_EQ(map.run_count(), 1u);
}

TEST(ContentMapTest, WriteOverSplitRun) {
  ContentMap map;
  map.Write(0, 20, 1000);
  map.Erase(8, 4);  // split into [0,8) and [12,20)
  EXPECT_EQ(map.run_count(), 2u);
  // Overwrite a window straddling the hole and both fragments.
  map.Write(6, 10, 5000);  // covers [6, 16)
  EXPECT_EQ(*map.Read(5), 1005u);
  EXPECT_EQ(*map.Read(6), 5000u);
  EXPECT_EQ(*map.Read(15), 5009u);
  EXPECT_EQ(*map.Read(16), 1016u);
  EXPECT_EQ(map.stored_pages(), 20u);
  EXPECT_EQ(map.run_count(), 3u);
}

TEST(ContentMapTest, EraseEverythingLeavesEmptyMap) {
  ContentMap map;
  map.Write(10, 5, 100);
  map.Write(20, 5, 200);
  map.Erase(0, 100);
  EXPECT_EQ(map.stored_pages(), 0u);
  EXPECT_EQ(map.run_count(), 0u);
  EXPECT_FALSE(map.Read(12).ok());
}

TEST(BlockAllocatorTest, FreeListCoalescingUnderChurn) {
  BlockAllocator alloc(1000);
  // Allocate ten 100-page blocks, free them in an interleaved order, and
  // check the free list coalesces back to a single extent at every point
  // where adjacency allows.
  std::vector<PoolOffset> blocks;
  for (int i = 0; i < 10; ++i) {
    auto b = alloc.Allocate(100);
    ASSERT_TRUE(b.ok());
    blocks.push_back(*b);
  }
  EXPECT_EQ(alloc.free_extent_count(), 0u);
  // Free evens: five isolated extents, nothing adjacent.
  for (int i = 0; i < 10; i += 2) {
    ASSERT_TRUE(alloc.Free(blocks[static_cast<size_t>(i)], 100).ok());
  }
  EXPECT_EQ(alloc.free_extent_count(), 5u);
  EXPECT_EQ(alloc.LargestFreeExtent(), 100u);
  // Free odds: each merges with both neighbors; the list collapses to one.
  for (int i = 1; i < 10; i += 2) {
    ASSERT_TRUE(alloc.Free(blocks[static_cast<size_t>(i)], 100).ok());
  }
  EXPECT_EQ(alloc.free_extent_count(), 1u);
  EXPECT_EQ(alloc.LargestFreeExtent(), 1000u);
  // Keep-alive steady state: free one block, reallocate the same size —
  // first fit hands back the same base and the extent count is unchanged.
  auto a = alloc.Allocate(64);
  ASSERT_TRUE(a.ok());
  const uint64_t extents_before = alloc.free_extent_count();
  ASSERT_TRUE(alloc.Free(*a, 64).ok());
  auto again = alloc.Allocate(64);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *a);
  EXPECT_EQ(alloc.free_extent_count(), extents_before);
}

TEST(CxlPoolTest, PortLimitEnforced) {
  CxlPool pool(kGiB);
  for (uint32_t node = 1; node <= CxlPool::kPortCount; ++node) {
    EXPECT_TRUE(pool.AttachNode(node).ok());
  }
  const uint32_t extra = CxlPool::kPortCount + 1;
  EXPECT_EQ(pool.AttachNode(extra).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.AttachNode(1).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(pool.DetachNode(1).ok());
  EXPECT_TRUE(pool.AttachNode(extra).ok());
}

TEST(CxlPoolTest, ByteAddressableWithSubMicrosecondLoads) {
  CxlPool pool(kGiB);
  EXPECT_TRUE(pool.byte_addressable());
  EXPECT_LT(pool.DirectLoadLatency().nanos(), 1000);
  EXPECT_GT(pool.DirectLoadLatency(), cost::kLocalDramLatency);
}

TEST(RdmaPoolTest, NotByteAddressable) {
  RdmaPool pool(kGiB);
  EXPECT_FALSE(pool.byte_addressable());
  EXPECT_GT(pool.FetchCpuPerPage(), SimDuration::Zero());
}

TEST(RdmaPoolTest, FetchLatencyNearBaseWhenIdle) {
  RdmaPool pool(kGiB, 42);
  double total_us = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    total_us += pool.FetchLatency(1).micros();
  }
  // Lognormal jitter is mean-1, so the average should be close to 6 us.
  EXPECT_NEAR(total_us / n, cost::kRdmaPageFetchBase.micros(), 1.0);
}

TEST(RdmaPoolTest, LatencyInflatesUnderLoad) {
  RdmaPool pool(kGiB, 42);
  EXPECT_DOUBLE_EQ(pool.LoadFactor(), 1.0);
  for (uint32_t i = 0; i < cost::kRdmaLoadFreeStreams + 10; ++i) {
    pool.BeginStream();
  }
  EXPECT_GT(pool.LoadFactor(), 2.0);
  for (uint32_t i = 0; i < cost::kRdmaLoadFreeStreams + 10; ++i) {
    pool.EndStream();
  }
  EXPECT_DOUBLE_EQ(pool.LoadFactor(), 1.0);
}

TEST(RdmaPoolTest, TailHeavierThanMedian) {
  RdmaPool pool(kGiB, 7);
  std::vector<double> lat;
  for (int i = 0; i < 5000; ++i) {
    lat.push_back(pool.FetchLatency(1).micros());
  }
  std::sort(lat.begin(), lat.end());
  const double p50 = lat[lat.size() / 2];
  const double p99 = lat[static_cast<size_t>(static_cast<double>(lat.size()) * 0.99)];
  EXPECT_GT(p99 / p50, 2.0);  // pronounced tail (section 9.5)
}

TEST(NasPoolTest, FetchScalesLinearly) {
  NasPool pool(kGiB);
  EXPECT_EQ(pool.FetchLatency(10).nanos(), cost::kNasPageFetchBase.nanos() * 10);
}

TEST(RdmaPoolTest, BulkFetchAmortizesTheRoundTrip) {
  // The pipelined bulk stream must cost far less per page than the same
  // pages demand-fetched one run at a time: the base round trip is paid once
  // and the per-page stream factor is a fraction of the readahead factor.
  RdmaPool bulk_pool(kGiB, 42);
  RdmaPool demand_pool(kGiB, 42);
  const uint64_t npages = 4096;
  double bulk_us = 0;
  double demand_us = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    bulk_us += bulk_pool.BulkFetchLatency(/*nruns=*/8, npages).micros();
    demand_us += demand_pool.FetchLatency(npages).micros();
  }
  EXPECT_LT(bulk_us * 2.0, demand_us);  // >= 2x cheaper on average
}

TEST(RdmaPoolTest, BulkFetchChargesPerRunScatterCost) {
  // Same page count, more runs -> strictly more scatter-descriptor overhead.
  // Same seed in two pools so the jitter draws line up pairwise.
  RdmaPool few_pool(kGiB, 11);
  RdmaPool many_pool(kGiB, 11);
  for (int i = 0; i < 50; ++i) {
    const SimDuration few = few_pool.BulkFetchLatency(/*nruns=*/1, 1024);
    const SimDuration many = many_pool.BulkFetchLatency(/*nruns=*/64, 1024);
    EXPECT_LT(few, many);
  }
}

TEST(RdmaPoolTest, BulkFetchOfNothingIsFree) {
  RdmaPool pool(kGiB, 42);
  EXPECT_EQ(pool.BulkFetchLatency(0, 0), SimDuration::Zero());
}

TEST(NasPoolTest, BulkFetchUsesTheDefaultModel) {
  // Backends without a bulk override charge the plain fetch model plus the
  // per-run descriptor cost, so routing a batch through BulkFetchLatency can
  // never be cheaper than the demand path for them.
  NasPool pool(kGiB);
  EXPECT_EQ(pool.BulkFetchLatency(1, 10).nanos(), pool.FetchLatency(10).nanos());
  EXPECT_EQ(pool.BulkFetchLatency(3, 10).nanos(),
            pool.FetchLatency(10).nanos() + 2 * cost::kBulkFetchPerRun.nanos());
}

TEST(DramPoolTest, FastestDirectLoad) {
  DramPool dram(kGiB);
  CxlPool cxl(kGiB);
  EXPECT_LT(dram.DirectLoadLatency(), cxl.DirectLoadLatency());
}

TEST(BackendTest, ContentSurvivesAllocation) {
  CxlPool pool(kGiB);
  auto base = pool.AllocatePages(16);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(pool.WriteContent(*base, 16, 12345).ok());
  EXPECT_EQ(*pool.ReadContent(*base + 7), 12352u);
  ASSERT_TRUE(pool.FreePages(*base, 16).ok());
  EXPECT_FALSE(pool.ReadContent(*base).ok());
}

TEST(BackendRegistryTest, LookupByKind) {
  CxlPool cxl(kGiB);
  RdmaPool rdma(kGiB);
  BackendRegistry reg;
  reg.Register(&cxl);
  reg.Register(&rdma);
  EXPECT_EQ(reg.Get(PoolKind::kCxl), &cxl);
  EXPECT_EQ(reg.Get(PoolKind::kRdma), &rdma);
  EXPECT_EQ(reg.Get(PoolKind::kNas), nullptr);
}

class TieredPoolTest : public ::testing::Test {
 protected:
  TieredPoolTest() : cxl_(16 * kPageSize * 1024), rdma_(kGiB) {
    tiered_.AddTier(&cxl_);
    tiered_.AddTier(&rdma_);
  }
  CxlPool cxl_;
  RdmaPool rdma_;
  TieredPool tiered_;
};

TEST_F(TieredPoolTest, HotGoesToUpperTier) {
  auto hot = tiered_.AllocatePages(64, /*hotness=*/1.0);
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->kind, PoolKind::kCxl);
  auto cold = tiered_.AllocatePages(64, /*hotness=*/0.0);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->kind, PoolKind::kRdma);
}

TEST_F(TieredPoolTest, SpillsWhenHotTierFull) {
  // Exhaust the CXL tier.
  auto big = tiered_.AllocatePages(16 * 1024, 1.0);
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(big->kind, PoolKind::kCxl);
  auto spill = tiered_.AllocatePages(64, 1.0);
  ASSERT_TRUE(spill.ok());
  EXPECT_EQ(spill->kind, PoolKind::kRdma);
}

TEST_F(TieredPoolTest, PromoteMovesUpAndPreservesContent) {
  auto cold = tiered_.AllocatePages(32, 0.0);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->kind, PoolKind::kRdma);
  ASSERT_TRUE(rdma_.WriteContent(cold->base, 32, 800).ok());
  auto promoted = tiered_.Promote(*cold);
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted->placement.kind, PoolKind::kCxl);
  EXPECT_EQ(*cxl_.ReadContent(promoted->placement.base + 3), 803u);
  EXPECT_GT(promoted->copy_latency, SimDuration::Zero());
  // Promoting from the top tier fails cleanly.
  EXPECT_EQ(tiered_.Promote(promoted->placement).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TieredPoolTest, FreeReturnsCapacity) {
  auto p = tiered_.AllocatePages(128, 1.0);
  ASSERT_TRUE(p.ok());
  const uint64_t used = cxl_.used_bytes();
  ASSERT_TRUE(tiered_.FreePages(*p).ok());
  EXPECT_LT(cxl_.used_bytes(), used);
}

// Fallback ordering when a tier errors: the preferred tier is tried first,
// then colder tiers in order, then warmer ones as a last resort.
class TieredFallbackTest : public ::testing::Test {
 protected:
  TieredFallbackTest()
      : cxl_(64 * kPageSize), rdma_(64 * kPageSize), nas_(64 * kPageSize) {
    tiered_.AddTier(&cxl_);
    tiered_.AddTier(&rdma_);
    tiered_.AddTier(&nas_);
  }
  // Fills a backend so its next AllocatePages errors.
  static void Exhaust(MemoryBackend& backend) {
    ASSERT_TRUE(backend.AllocatePages(64).ok());
    ASSERT_FALSE(backend.AllocatePages(1).ok());
  }
  CxlPool cxl_;
  RdmaPool rdma_;
  NasPool nas_;
  TieredPool tiered_;
};

TEST_F(TieredFallbackTest, ErroringPreferredTierFallsColderFirst) {
  // hotness 0.5 with three tiers prefers the middle (RDMA) tier.
  Exhaust(rdma_);
  auto spill = tiered_.AllocatePages(8, 0.5);
  ASSERT_TRUE(spill.ok());
  EXPECT_EQ(spill->kind, PoolKind::kNas);
}

TEST_F(TieredFallbackTest, FallsBackUpwardWhenAllColderTiersError) {
  Exhaust(rdma_);
  Exhaust(nas_);
  auto spill = tiered_.AllocatePages(8, 0.5);
  ASSERT_TRUE(spill.ok());
  EXPECT_EQ(spill->kind, PoolKind::kCxl);
}

TEST_F(TieredFallbackTest, AllTiersErroringReportsOutOfMemory) {
  Exhaust(cxl_);
  Exhaust(rdma_);
  Exhaust(nas_);
  auto spill = tiered_.AllocatePages(8, 0.5);
  ASSERT_FALSE(spill.ok());
  EXPECT_EQ(spill.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(TieredFallbackTest, PromoteFailsCleanlyWhenUpperTierErrors) {
  auto cold = tiered_.AllocatePages(8, 0.0);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->kind, PoolKind::kNas);
  ASSERT_TRUE(nas_.WriteContent(cold->base, 8, 900).ok());
  // The tier above (RDMA) has no room: promotion must surface the error and
  // leave the original placement intact — content readable, pages freeable.
  Exhaust(rdma_);
  auto promoted = tiered_.Promote(*cold);
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(*nas_.ReadContent(cold->base), 900u);
  EXPECT_TRUE(tiered_.FreePages(*cold).ok());
}

}  // namespace
}  // namespace trenv
