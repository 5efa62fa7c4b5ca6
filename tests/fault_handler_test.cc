// Tests for MmStruct + FaultHandler: the paper's PTE state machine.
#include <gtest/gtest.h>

#include "src/common/cost_model.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/rdma_pool.h"
#include "src/simkernel/fault_handler.h"

namespace trenv {
namespace {

class FaultHandlerTest : public ::testing::Test {
 protected:
  FaultHandlerTest()
      : frames_(1 * kGiB),
        cxl_(1 * kGiB),
        rdma_(1 * kGiB),
        handler_(&frames_, &backends_, &stats_) {
    backends_.Register(&cxl_);
    backends_.Register(&rdma_);
  }

  // The handler's registry count of `name` (e.g. "faults.minor").
  uint64_t Count(std::string_view name) { return stats_.GetCounter(name)->count(); }

  // Maps `npages` of `mm` at `addr` to freshly-allocated pool space holding
  // content_base..; returns the pool offset.
  PoolOffset BackRange(MmStruct& mm, MemoryBackend& pool, Vaddr addr, uint64_t npages,
                       PageContent content_base) {
    auto base = pool.AllocatePages(npages);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(pool.WriteContent(*base, npages, content_base).ok());
    PteFlags flags;
    flags.valid = pool.byte_addressable();
    flags.write_protected = true;
    flags.pool = pool.kind();
    mm.page_table().MapRange(AddrToVpn(addr), npages, flags, *base, content_base);
    return *base;
  }

  FrameAllocator frames_;
  CxlPool cxl_;
  RdmaPool rdma_;
  BackendRegistry backends_;
  obs::Registry stats_;
  FaultHandler handler_;
};

constexpr Vaddr kBase = 0x7f0000000000;

TEST_F(FaultHandlerTest, SegfaultOnUnmappedAddress) {
  MmStruct mm;
  auto outcome = handler_.Access(mm, kBase, false);
  EXPECT_EQ(outcome.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(FaultHandlerTest, SegfaultOnWriteToReadOnlyVma) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 4 * kPageSize, Protection::ReadOnly(), "ro")).ok());
  EXPECT_EQ(handler_.Access(mm, kBase, true).status().code(), StatusCode::kPermissionDenied);
}

TEST_F(FaultHandlerTest, ZeroFillMinorFaultThenHit) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 4 * kPageSize, Protection::ReadWrite(), "heap")).ok());
  auto first = handler_.Access(mm, kBase, false);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->kind, AccessKind::kMinorFault);
  EXPECT_EQ(first->content, kZeroPageContent);
  // Second access: resident.
  auto second = handler_.Access(mm, kBase, false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->kind, AccessKind::kDirectLocal);
  EXPECT_EQ(Count("faults.minor"), 1u);
  EXPECT_EQ(frames_.used_pages(), 1u);
}

TEST_F(FaultHandlerTest, CxlReadIsDirectNoFault) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 8 * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, cxl_, kBase, 8, 1000);
  auto outcome = handler_.Access(mm, kBase + 3 * kPageSize, false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, AccessKind::kDirectRemote);
  EXPECT_EQ(outcome->content, 1003u);
  EXPECT_EQ(outcome->latency, cost::kCxlLoadLatency);
  EXPECT_EQ(Count("faults.major"), 0u);
  EXPECT_EQ(Count("faults.cow"), 0u);
  EXPECT_EQ(frames_.used_pages(), 0u);  // no local memory consumed
}

TEST_F(FaultHandlerTest, CxlWriteTriggersCow) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 8 * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, cxl_, kBase, 8, 1000);
  auto outcome = handler_.Access(mm, kBase + kPageSize, true, 0xBEEF);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, AccessKind::kCowFault);
  EXPECT_EQ(Count("faults.cow"), 1u);
  EXPECT_EQ(frames_.used_pages(), 1u);
  // The written page now reads the new content locally.
  auto read = handler_.Access(mm, kBase + kPageSize, false);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->kind, AccessKind::kDirectLocal);
  EXPECT_EQ(read->content, 0xBEEFu);
  // Neighbours still read the shared CXL image.
  EXPECT_EQ(handler_.Access(mm, kBase, false)->content, 1000u);
  EXPECT_EQ(handler_.Access(mm, kBase + 2 * kPageSize, false)->content, 1002u);
  // The pool copy is untouched.
  EXPECT_EQ(*cxl_.ReadContent(1), 1001u);
}

TEST_F(FaultHandlerTest, CowPreservesIsolationBetweenTwoAttachedMms) {
  MmStruct mm_a;
  MmStruct mm_b;
  for (MmStruct* mm : {&mm_a, &mm_b}) {
    ASSERT_TRUE(
        mm->AddVma(MakeAnonVma(kBase, 4 * kPageSize, Protection::ReadWrite(), "img")).ok());
  }
  // Both map the SAME pool block (that is the sharing mechanism).
  auto base = cxl_.AllocatePages(4);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(cxl_.WriteContent(*base, 4, 500).ok());
  PteFlags flags;
  flags.valid = true;
  flags.write_protected = true;
  flags.pool = PoolKind::kCxl;
  mm_a.page_table().MapRange(AddrToVpn(kBase), 4, flags, *base, 500);
  mm_b.page_table().MapRange(AddrToVpn(kBase), 4, flags, *base, 500);

  ASSERT_TRUE(handler_.Access(mm_a, kBase, true, 0xAAAA).ok());
  // A sees its write; B still sees the shared image.
  EXPECT_EQ(handler_.Access(mm_a, kBase, false)->content, 0xAAAAu);
  EXPECT_EQ(handler_.Access(mm_b, kBase, false)->content, 500u);
}

TEST_F(FaultHandlerTest, RdmaTouchIsMajorFault) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 8 * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, rdma_, kBase, 8, 2000);
  auto outcome = handler_.Access(mm, kBase + 5 * kPageSize, false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, AccessKind::kMajorFault);
  EXPECT_EQ(outcome->content, 2005u);
  EXPECT_GE(outcome->latency, cost::kMajorFaultEntry);
  EXPECT_EQ(Count("faults.major"), 1u);
  EXPECT_EQ(frames_.used_pages(), 1u);
  // Second touch is resident local.
  auto again = handler_.Access(mm, kBase + 5 * kPageSize, false);
  EXPECT_EQ(again->kind, AccessKind::kDirectLocal);
  EXPECT_EQ(Count("faults.major"), 1u);
}

TEST_F(FaultHandlerTest, BulkReadOnCxlCausesNoFaultsAndNoLocalMemory) {
  MmStruct mm;
  const uint64_t npages = BytesToPages(64 * kMiB);
  ASSERT_TRUE(
      mm.AddVma(MakeAnonVma(kBase, npages * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, cxl_, kBase, npages, 9000);
  auto stats = handler_.AccessRange(mm, kBase, npages, false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->direct_remote, npages);
  EXPECT_EQ(stats->major_faults, 0u);
  EXPECT_EQ(stats->cow_faults, 0u);
  EXPECT_EQ(stats->new_local_pages, 0u);
  EXPECT_EQ(frames_.used_pages(), 0u);
}

TEST_F(FaultHandlerTest, BulkWriteOnCxlCowsEveryPage) {
  MmStruct mm;
  const uint64_t npages = 64;
  ASSERT_TRUE(
      mm.AddVma(MakeAnonVma(kBase, npages * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, cxl_, kBase, npages, 9000);
  auto stats = handler_.AccessRange(mm, kBase, npages, true);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cow_faults, npages);
  EXPECT_EQ(stats->new_local_pages, npages);
  EXPECT_EQ(frames_.used_pages(), npages);
  EXPECT_GE(stats->latency, cost::kCowFault * static_cast<double>(npages));
}

TEST_F(FaultHandlerTest, BulkRdmaFetchAccountsBytesAndCpu) {
  MmStruct mm;
  const uint64_t npages = 128;
  ASSERT_TRUE(
      mm.AddVma(MakeAnonVma(kBase, npages * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, rdma_, kBase, npages, 100);
  auto stats = handler_.AccessRange(mm, kBase, npages, false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->major_faults, npages);
  EXPECT_EQ(stats->bytes_fetched, npages * kPageSize);
  EXPECT_EQ(stats->fetch_cpu, cost::kRdmaPerFetchCpu * static_cast<double>(npages));
  // Once resident, a second pass costs nothing remote.
  auto second = handler_.AccessRange(mm, kBase, npages, false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->major_faults, 0u);
  EXPECT_EQ(second->direct_local, npages);
}

TEST_F(FaultHandlerTest, BulkRangeWithGapZeroFills) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 32 * kPageSize, Protection::ReadWrite(), "mix")).ok());
  BackRange(mm, cxl_, kBase + 8 * kPageSize, 8, 300);  // pages 8..15 on CXL
  auto stats = handler_.AccessRange(mm, kBase, 32, false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->minor_faults, 24u);  // the two gaps
  EXPECT_EQ(stats->direct_remote, 8u);
  EXPECT_EQ(mm.page_table().mapped_pages(), 32u);
}

TEST_F(FaultHandlerTest, RangeSpanningTwoVmasRejected) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 4 * kPageSize, Protection::ReadWrite(), "a")).ok());
  ASSERT_TRUE(
      mm.AddVma(MakeAnonVma(kBase + 4 * kPageSize, 4 * kPageSize, Protection::ReadWrite(), "b"))
          .ok());
  EXPECT_EQ(handler_.AccessRange(mm, kBase, 8, false).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FaultHandlerTest, RangeReadOfNonReadableVmaRejected) {
  MmStruct mm;
  const Protection write_only{/*read=*/false, /*write=*/true, /*exec=*/false};
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 4 * kPageSize, write_only, "wo")).ok());
  EXPECT_EQ(handler_.AccessRange(mm, kBase, 4, false).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(mm.page_table().mapped_pages(), 0u);
  EXPECT_TRUE(handler_.AccessRange(mm, kBase, 4, true).ok());
}

TEST_F(FaultHandlerTest, RangeOutsideEveryVmaIsASegfault) {
  MmStruct mm;
  EXPECT_EQ(handler_.AccessRange(mm, kBase, 4, false).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(FaultHandlerTest, RangeCowOnUnregisteredPoolIsInternalError) {
  // A CXL page whose backend the handler does not know: the CoW copy has
  // nowhere to fetch from, which is a wiring error, not a free fault.
  BackendRegistry none;
  FaultHandler handler(&frames_, &none);
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 4 * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, cxl_, kBase, 4, 700);
  EXPECT_EQ(handler.AccessRange(mm, kBase, 4, true).status().code(), StatusCode::kInternal);
  EXPECT_EQ(frames_.used_pages(), 0u);
}

TEST_F(FaultHandlerTest, SinglePageLatencyAddsTheLoad) {
  // The one-page wrapper charges the direct load the bulk path leaves to the
  // execution model; fault kinds carry exactly the bulk latency.
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 8 * kPageSize, Protection::ReadWrite(), "img")).ok());
  BackRange(mm, cxl_, kBase, 8, 1000);
  auto cow = handler_.Access(mm, kBase, true, 0xC0);
  ASSERT_TRUE(cow.ok());
  EXPECT_EQ(cow->latency, cost::kCowFault + cxl_.FetchLatency(1));
  auto local = handler_.Access(mm, kBase, false);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->latency, cost::kLocalDramLatency);
  EXPECT_EQ(local->content, 0xC0u);
  auto bulk = handler_.AccessRange(mm, kBase + kPageSize, 7, false);
  ASSERT_TRUE(bulk.ok());
  EXPECT_EQ(bulk->latency, SimDuration());
  EXPECT_EQ(Count("reads.direct_remote"), 7u);
}

TEST_F(FaultHandlerTest, HeapGrowthAfterAttachStaysLocal) {
  // Fig 9(b): growth past the template-backed heap must allocate local
  // memory, not run into adjacent CXL ranges.
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 8 * kPageSize, Protection::ReadWrite(), "[heap]")).ok());
  BackRange(mm, cxl_, kBase, 8, 100);
  auto grown = mm.GrowVma(kBase, 4 * kPageSize);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(*grown, kBase + 8 * kPageSize);
  auto outcome = handler_.Access(mm, *grown, true, 0x1234);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, AccessKind::kMinorFault);
  auto pte = mm.page_table().Lookup(AddrToVpn(*grown));
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->flags.pool, PoolKind::kLocalDram);
}

TEST_F(FaultHandlerTest, WriteReadRoundTrip) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 4 * kPageSize, Protection::ReadWrite(), "rw")).ok());
  ASSERT_TRUE(handler_.WritePage(mm, kBase + 2 * kPageSize, 0xCAFE).ok());
  auto content = handler_.ReadPage(mm, kBase + 2 * kPageSize);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, 0xCAFEu);
}

TEST_F(FaultHandlerTest, OutOfLocalMemoryReported) {
  FrameAllocator tiny(2 * kPageSize);
  FaultHandler handler(&tiny, &backends_);
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(kBase, 8 * kPageSize, Protection::ReadWrite(), "big")).ok());
  ASSERT_TRUE(handler.Access(mm, kBase, true, 1).ok());
  ASSERT_TRUE(handler.Access(mm, kBase + kPageSize, true, 2).ok());
  EXPECT_EQ(handler.Access(mm, kBase + 2 * kPageSize, true, 3).status().code(),
            StatusCode::kOutOfMemory);
}

TEST(MmStructTest, VmaOverlapRejected) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(0x1000, 4 * kPageSize, Protection::ReadWrite(), "a")).ok());
  EXPECT_EQ(mm.AddVma(MakeAnonVma(0x2000, kPageSize, Protection::ReadWrite(), "b")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(mm.AddVma(MakeAnonVma(0, 2 * kPageSize, Protection::ReadWrite(), "c")).code(),
            StatusCode::kAlreadyExists);
}

TEST(MmStructTest, GrowCollisionRejected) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(0x1000, kPageSize, Protection::ReadWrite(), "heap")).ok());
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(0x3000, kPageSize, Protection::ReadWrite(), "lib")).ok());
  EXPECT_TRUE(mm.GrowVma(0x1000, kPageSize).ok());   // fills the gap exactly
  EXPECT_EQ(mm.GrowVma(0x1000, kPageSize).status().code(), StatusCode::kResourceExhausted);
}

TEST(MmStructTest, RemoveVmaUnmapsPages) {
  MmStruct mm;
  ASSERT_TRUE(mm.AddVma(MakeAnonVma(0x1000, 4 * kPageSize, Protection::ReadWrite(), "a")).ok());
  PteFlags flags;
  flags.valid = true;
  mm.page_table().MapRange(AddrToVpn(0x1000), 4, flags, 0, 0);
  ASSERT_TRUE(mm.RemoveVma(0x1000).ok());
  EXPECT_EQ(mm.page_table().mapped_pages(), 0u);
  EXPECT_EQ(mm.FindVma(0x1000), nullptr);
}

}  // namespace
}  // namespace trenv
