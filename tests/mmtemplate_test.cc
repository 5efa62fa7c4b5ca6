// Tests for the mm-template API: the create/add_map/setup_pt/attach flow of
// paper Fig 11/12, including multi-attach sharing and cross-pool templates.
#include <gtest/gtest.h>

#include "src/common/cost_model.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/rdma_pool.h"
#include "src/simkernel/fault_handler.h"
#include "src/mmtemplate/api.h"

namespace trenv {
namespace {

constexpr Vaddr kText = 0x400000;
constexpr Vaddr kHeap = 0x7fff4000000;

class MmtApiTest : public ::testing::Test {
 protected:
  MmtApiTest() : cxl_(kGiB), rdma_(kGiB), frames_(kGiB), api_(&backends_) {
    backends_.Register(&cxl_);
    backends_.Register(&rdma_);
  }

  // Builds the paper's Fig-12 style template: one CXL-backed region.
  MmtId BuildSimpleTemplate(uint64_t npages, PageContent content, PoolOffset* out_base) {
    MmtId id = api_.MmtCreate("func-x");
    EXPECT_TRUE(api_.MmtAddMap(id, kHeap, npages * kPageSize, Protection::ReadWrite(), true, -1,
                               0, "[heap]")
                    .ok());
    auto base = cxl_.AllocatePages(npages);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(cxl_.WriteContent(*base, npages, content).ok());
    EXPECT_TRUE(api_.MmtSetupPt(id, kHeap, npages * kPageSize, *base, PoolKind::kCxl).ok());
    if (out_base != nullptr) {
      *out_base = *base;
    }
    return id;
  }

  CxlPool cxl_;
  RdmaPool rdma_;
  BackendRegistry backends_;
  FrameAllocator frames_;
  MmtApi api_;
};

TEST_F(MmtApiTest, CreateLookupDestroy) {
  MmtId id = api_.MmtCreate("f");
  EXPECT_NE(id, kInvalidMmtId);
  EXPECT_TRUE(api_.registry().Lookup(id).ok());
  EXPECT_TRUE(api_.MmtDestroy(id).ok());
  EXPECT_EQ(api_.registry().Lookup(id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(api_.MmtDestroy(id).code(), StatusCode::kNotFound);
}

TEST_F(MmtApiTest, SetupPtRequiresAddMapFirst) {
  MmtId id = api_.MmtCreate("f");
  auto base = cxl_.AllocatePages(4);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(cxl_.WriteContent(*base, 4, 1).ok());
  EXPECT_EQ(api_.MmtSetupPt(id, kHeap, 4 * kPageSize, *base, PoolKind::kCxl).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(MmtApiTest, SetupPtRequiresContentInPool) {
  MmtId id = api_.MmtCreate("f");
  ASSERT_TRUE(
      api_.MmtAddMap(id, kHeap, 4 * kPageSize, Protection::ReadWrite(), true, -1, 0).ok());
  // Pool offset 500 was never written by the deduplicator.
  EXPECT_EQ(api_.MmtSetupPt(id, kHeap, 4 * kPageSize, 500, PoolKind::kCxl).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MmtApiTest, CxlTemplateInstallsValidWriteProtectedPtes) {
  MmtId id = BuildSimpleTemplate(16, 100, nullptr);
  auto tmpl = api_.registry().Lookup(id);
  ASSERT_TRUE(tmpl.ok());
  auto pte = (*tmpl)->mm().page_table().Lookup(AddrToVpn(kHeap));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(pte->flags.valid);
  EXPECT_TRUE(pte->flags.write_protected);
  EXPECT_EQ(pte->flags.pool, PoolKind::kCxl);
}

TEST_F(MmtApiTest, RdmaTemplateInstallsInvalidLazyPtes) {
  MmtId id = api_.MmtCreate("f");
  ASSERT_TRUE(
      api_.MmtAddMap(id, kHeap, 8 * kPageSize, Protection::ReadWrite(), true, -1, 0).ok());
  auto base = rdma_.AllocatePages(8);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(rdma_.WriteContent(*base, 8, 700).ok());
  ASSERT_TRUE(api_.MmtSetupPt(id, kHeap, 8 * kPageSize, *base, PoolKind::kRdma).ok());
  auto tmpl = api_.registry().Lookup(id);
  auto pte = (*tmpl)->mm().page_table().Lookup(AddrToVpn(kHeap));
  ASSERT_TRUE(pte.has_value());
  EXPECT_FALSE(pte->flags.valid);
  EXPECT_EQ(pte->flags.pool, PoolKind::kRdma);
}

TEST_F(MmtApiTest, AttachCopiesMetadataOnly) {
  const uint64_t npages = BytesToPages(70 * kMiB);
  MmtId id = BuildSimpleTemplate(npages, 42, nullptr);
  MmStruct mm;
  auto result = api_.MmtAttach(id, &mm);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->mapped_pages, npages);
  // Metadata, not 70 MiB.
  EXPECT_LT(result->metadata_bytes, kMiB);
  // Attach is fast: well under 10 ms (the repurposing budget).
  EXPECT_LT(result->latency.millis(), 1.0);
  // The process really maps the pages.
  EXPECT_EQ(mm.page_table().mapped_pages(), npages);
  EXPECT_EQ(mm.VirtualBytes(), npages * kPageSize);
  // But no local frames were consumed.
  EXPECT_EQ(frames_.used_pages(), 0u);
}

TEST_F(MmtApiTest, AttachTwiceToSameProcessFails) {
  MmtId id = BuildSimpleTemplate(4, 9, nullptr);
  MmStruct mm;
  ASSERT_TRUE(api_.MmtAttach(id, &mm).ok());
  EXPECT_EQ(api_.MmtAttach(id, &mm).status().code(), StatusCode::kAlreadyExists);
}

TEST_F(MmtApiTest, MultiAttachSharesUntilWrite) {
  MmtId id = BuildSimpleTemplate(8, 1000, nullptr);
  MmStruct a;
  MmStruct b;
  ASSERT_TRUE(api_.MmtAttach(id, &a).ok());
  ASSERT_TRUE(api_.MmtAttach(id, &b).ok());
  EXPECT_EQ((*api_.registry().Lookup(id))->attach_count(), 2u);

  FaultHandler handler(&frames_, &backends_);
  // Both read the shared image.
  EXPECT_EQ(*handler.ReadPage(a, kHeap), 1000u);
  EXPECT_EQ(*handler.ReadPage(b, kHeap), 1000u);
  // A writes; B is unaffected; a third attach still sees the image.
  ASSERT_TRUE(handler.WritePage(a, kHeap, 0xD00D).ok());
  EXPECT_EQ(*handler.ReadPage(a, kHeap), 0xD00Du);
  EXPECT_EQ(*handler.ReadPage(b, kHeap), 1000u);
  MmStruct c;
  ASSERT_TRUE(api_.MmtAttach(id, &c).ok());
  EXPECT_EQ(*handler.ReadPage(c, kHeap), 1000u);
  // Exactly one local page was instantiated (A's CoW copy).
  EXPECT_EQ(frames_.used_pages(), 1u);
}

TEST_F(MmtApiTest, OverlappingTemplateRegionsShareOnePoolBlock) {
  // Fig 12: snapshots of functions X and Y both contain region R2 backed by
  // the same Block 2 on remote memory.
  auto block2 = cxl_.AllocatePages(4);
  ASSERT_TRUE(block2.ok());
  ASSERT_TRUE(cxl_.WriteContent(*block2, 4, 2222).ok());

  MmtId x = api_.MmtCreate("func-x");
  MmtId y = api_.MmtCreate("func-y");
  ASSERT_TRUE(api_.MmtAddMap(x, 0x7FFF4000, 4 * kPageSize, Protection::ReadOnly(), true, -1, 0)
                  .ok());
  ASSERT_TRUE(api_.MmtAddMap(y, 0x5FFF0000, 4 * kPageSize, Protection::ReadOnly(), true, -1, 0)
                  .ok());
  ASSERT_TRUE(api_.MmtSetupPt(x, 0x7FFF4000, 4 * kPageSize, *block2, PoolKind::kCxl).ok());
  ASSERT_TRUE(api_.MmtSetupPt(y, 0x5FFF0000, 4 * kPageSize, *block2, PoolKind::kCxl).ok());

  MmStruct mm_x;
  MmStruct mm_y;
  ASSERT_TRUE(api_.MmtAttach(x, &mm_x).ok());
  ASSERT_TRUE(api_.MmtAttach(y, &mm_y).ok());
  FaultHandler handler(&frames_, &backends_);
  // Different virtual addresses, same physical content.
  EXPECT_EQ(*handler.ReadPage(mm_x, 0x7FFF4000 + kPageSize), 2223u);
  EXPECT_EQ(*handler.ReadPage(mm_y, 0x5FFF0000 + kPageSize), 2223u);
  // And the pool holds one copy: 4 pages total.
  EXPECT_EQ(cxl_.stored_pages(), 4u);
}

TEST_F(MmtApiTest, MixedPoolTemplate) {
  // Hot region on CXL, cold region on RDMA — one template, two pools.
  MmtId id = api_.MmtCreate("mixed");
  ASSERT_TRUE(
      api_.MmtAddMap(id, kText, 4 * kPageSize, Protection::ReadExec(), true, 3, 0, ".text").ok());
  ASSERT_TRUE(
      api_.MmtAddMap(id, kHeap, 4 * kPageSize, Protection::ReadWrite(), true, -1, 0, "[heap]")
          .ok());
  auto hot = cxl_.AllocatePages(4);
  auto cold = rdma_.AllocatePages(4);
  ASSERT_TRUE(hot.ok() && cold.ok());
  ASSERT_TRUE(cxl_.WriteContent(*hot, 4, 10).ok());
  ASSERT_TRUE(rdma_.WriteContent(*cold, 4, 20).ok());
  ASSERT_TRUE(api_.MmtSetupPt(id, kText, 4 * kPageSize, *hot, PoolKind::kCxl).ok());
  ASSERT_TRUE(api_.MmtSetupPt(id, kHeap, 4 * kPageSize, *cold, PoolKind::kRdma).ok());

  MmStruct mm;
  ASSERT_TRUE(api_.MmtAttach(id, &mm).ok());
  FaultHandler handler(&frames_, &backends_);
  auto text_read = handler.Access(mm, kText, false);
  ASSERT_TRUE(text_read.ok());
  EXPECT_EQ(text_read->kind, AccessKind::kDirectRemote);
  auto heap_read = handler.Access(mm, kHeap, false);
  ASSERT_TRUE(heap_read.ok());
  EXPECT_EQ(heap_read->kind, AccessKind::kMajorFault);
}

TEST_F(MmtApiTest, AttachLatencyScalesWithImageSize) {
  MmtId small = BuildSimpleTemplate(BytesToPages(4 * kMiB), 1, nullptr);
  MmStruct mm_small;
  auto r_small = api_.MmtAttach(small, &mm_small);
  ASSERT_TRUE(r_small.ok());

  MmtId big = api_.MmtCreate("big");
  const uint64_t big_pages = BytesToPages(800 * kMiB);
  ASSERT_TRUE(api_.MmtAddMap(big, kHeap, big_pages * kPageSize, Protection::ReadWrite(), true,
                             -1, 0)
                  .ok());
  auto base = cxl_.AllocatePages(big_pages);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(cxl_.WriteContent(*base, big_pages, 5).ok());
  ASSERT_TRUE(api_.MmtSetupPt(big, kHeap, big_pages * kPageSize, *base, PoolKind::kCxl).ok());
  MmStruct mm_big;
  auto r_big = api_.MmtAttach(big, &mm_big);
  ASSERT_TRUE(r_big.ok());

  EXPECT_GT(r_big->latency, r_small->latency);
  // Even an 800 MiB image attaches in ~1 ms class (vs >700 ms full copy).
  EXPECT_LT(r_big->latency.millis(), 10.0);
}

TEST_F(MmtApiTest, MetadataRegistryAccounting) {
  BuildSimpleTemplate(64, 1, nullptr);
  BuildSimpleTemplate(64, 2, nullptr);
  EXPECT_EQ(api_.registry().size(), 2u);
  EXPECT_GT(api_.registry().TotalMetadataBytes(), 0u);
}

}  // namespace
}  // namespace trenv
