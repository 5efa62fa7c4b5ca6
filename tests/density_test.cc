// Density tiering subsystem: demote/promote round trips, pressure-driven
// demotion, crash cleanup, and footprint accounting (template-shared pages
// are never double-counted).
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/density/footprint.h"
#include "src/platform/testbed.h"
#include "src/workload/arrival.h"

namespace trenv {
namespace {

constexpr const char* kFns[] = {"JS", "CR", "IR"};

PlatformConfig FastDensityConfig(bool enabled) {
  PlatformConfig config;
  config.keep_alive_ttl = SimDuration::Minutes(5);
  config.density.enabled = enabled;
  config.density.sweep_interval = SimDuration::Seconds(5);
  config.density.demote_hot_after = SimDuration::Seconds(20);
  config.density.demote_warm_after = SimDuration::Seconds(60);
  return config;
}

struct RunResult {
  uint64_t invocations = 0;
  uint64_t warm_starts = 0;
  uint64_t cold_starts = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t frames_after_evict = 0;
  uint64_t cxl_after_evict = 0;
  uint64_t nas_after_evict = 0;
};

RunResult RunDensityWorkload(bool enabled, uint64_t seed) {
  Testbed bed(SystemKind::kTrEnvCxl, FastDensityConfig(enabled));
  EXPECT_TRUE(bed.DeployTable4Functions().ok());
  Rng rng(seed);
  Schedule schedule =
      MakePoissonWorkload({kFns[0], kFns[1], kFns[2]}, /*rate_per_sec=*/0.2,
                          SimDuration::Minutes(5), /*function_skew=*/0.5, rng);
  EXPECT_TRUE(bed.platform().Run(schedule).ok());
  bed.platform().EvictAllIdle();

  RunResult r;
  for (const auto& [name, m] : bed.platform().metrics().per_function()) {
    r.invocations += m.invocations;
    r.warm_starts += m.warm_starts;
    r.cold_starts += m.cold_starts;
  }
  r.promotions = bed.platform().density().promotions();
  r.demotions = bed.platform().density().demotions();
  r.frames_after_evict = bed.platform().frames().used_bytes();
  r.cxl_after_evict = bed.cxl().used_bytes();
  r.nas_after_evict = bed.nas().used_bytes();
  return r;
}

// The live migration loop must not perturb the workload beyond the honest
// attach cost: the same trace with density on and off completes the same
// invocations, and every swap block is released by the end (no leak, no
// double-free).
TEST(DensityTest, DemotePromoteRoundTripMatchesDensityOffAcrossSeeds) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    RunResult off = RunDensityWorkload(false, seed);
    RunResult on = RunDensityWorkload(true, seed);
    EXPECT_EQ(on.invocations, off.invocations) << "seed " << seed;
    EXPECT_EQ(on.warm_starts + on.cold_starts, off.warm_starts + off.cold_starts)
        << "seed " << seed;
    // Promotion fetches delay completion, so a borderline arrival can flip
    // warm->cold; anything beyond a couple of flips would mean the tiering
    // loop is perturbing the pool itself.
    EXPECT_LE(on.cold_starts, off.cold_starts + 2) << "seed " << seed;
    // The machinery actually ran: idle instances aged down a tier and were
    // pulled back up on re-invocation.
    EXPECT_GT(on.demotions, 0u) << "seed " << seed;
    EXPECT_GT(on.promotions, 0u) << "seed " << seed;
    // Round-trip accounting: all frames and swap blocks released, leaving
    // exactly the density-off residue (templates in the shared pool).
    EXPECT_EQ(on.frames_after_evict, off.frames_after_evict) << "seed " << seed;
    EXPECT_EQ(on.cxl_after_evict, off.cxl_after_evict) << "seed " << seed;
    EXPECT_EQ(on.nas_after_evict, 0u) << "seed " << seed;
  }
}

// Every warm take pays the attach cost of its current tier; DRAM-hot takes
// are free, so attach latency is recorded for every warm start and demoted
// takes are the only non-zero samples.
TEST(DensityTest, AttachLatencyIsRecordedPerWarmTake) {
  Testbed bed(SystemKind::kTrEnvCxl, FastDensityConfig(true));
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  Rng rng(7);
  Schedule schedule = MakePoissonWorkload({kFns[0], kFns[1]}, 0.2,
                                          SimDuration::Minutes(4), 0.5, rng);
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  uint64_t warm = 0;
  for (const auto& [name, m] : bed.platform().metrics().per_function()) {
    warm += m.warm_starts;
  }
  const DensityManager& density = bed.platform().density();
  EXPECT_EQ(density.attach_ms().count(), warm);
  if (density.promotions() > 0) {
    EXPECT_GT(density.attach_ms().Max(), 0.0);
  }
}

// Under a tight soft cap, density demotes idle instances instead of evicting
// them: warmth survives pressure that would otherwise force cold starts.
TEST(DensityTest, PressureDemotesInsteadOfEvicting) {
  auto run = [](bool enabled) {
    PlatformConfig config = FastDensityConfig(enabled);
    config.soft_mem_cap_bytes = 8 * kMiB;
    Testbed bed(SystemKind::kTrEnvCxl, config);
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    Rng rng(5);
    Schedule schedule = MakePoissonWorkload({kFns[0], kFns[1], kFns[2]}, 0.5,
                                            SimDuration::Minutes(3), 0.5, rng);
    EXPECT_TRUE(bed.platform().Run(schedule).ok());
    uint64_t warm = 0;
    for (const auto& [name, m] : bed.platform().metrics().per_function()) {
      warm += m.warm_starts;
    }
    return std::pair<uint64_t, uint64_t>(warm, bed.platform().density().demotions());
  };
  auto [warm_off, demotions_off] = run(false);
  auto [warm_on, demotions_on] = run(true);
  EXPECT_EQ(demotions_off, 0u);
  EXPECT_GT(demotions_on, 0u);
  // Demotion preserves the warm pool the cap would have drained.
  EXPECT_GE(warm_on, warm_off);
}

// A node crash mid-run drops every swap block along with the warm pool.
TEST(DensityTest, CrashReleasesAllSwapBlocks) {
  Testbed bed(SystemKind::kTrEnvCxl, FastDensityConfig(true));
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  Rng rng(13);
  Schedule schedule = MakePoissonWorkload({kFns[0], kFns[1], kFns[2]}, 0.2,
                                          SimDuration::Minutes(5), 0.5, rng);
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  // The post-workload idle tail walked instances down to the NAS cold tier.
  EXPECT_GT(bed.platform().density().tier_timeline(DensityTier::kNasCold).peak(), 0.0);
  const uint64_t cxl_templates = bed.cxl().used_bytes();
  bed.platform().Crash();
  EXPECT_EQ(bed.platform().frames().used_bytes(), 0u);
  EXPECT_EQ(bed.nas().used_bytes(), 0u);
  EXPECT_LE(bed.cxl().used_bytes(), cxl_templates);
}

// Footprint accounting: pool-shared template pages appear in
// shared_pool_pages but never in NodeBytes(), and restoring more instances
// of the same function stores no additional unique pages — K warm copies
// cost K * (private + metadata), not K * image.
TEST(DensityTest, FootprintNeverDoubleCountsTemplateSharedPages) {
  CxlPool cxl(8 * kGiB);
  BackendRegistry backends;
  backends.Register(&cxl);
  TieredPool tiered;
  tiered.AddTier(&cxl);
  SnapshotDedupStore dedup(&tiered);
  SandboxFactory factory(std::make_shared<FsLayer>("base"));
  SandboxPool pool;
  MmtApi api(&backends);
  TrEnvEngine engine(&factory, &pool, &api, &dedup);

  FunctionProfile profile;
  profile.name = "dense-fn";
  profile.language = "python";
  profile.image_bytes = 32 * kMiB;
  profile.threads = 4;
  ASSERT_TRUE(engine.Prepare(profile).ok());
  FrameAllocator frames(8 * kGiB);
  PidAllocator pids;
  RestoreContext ctx;
  ctx.frames = &frames;
  ctx.backends = &backends;
  ctx.pids = &pids;

  Rng rng(29);
  const uint64_t unique_after_prepare = dedup.stored_unique_pages();
  std::vector<std::unique_ptr<FunctionInstance>> instances;
  const int k = 2 + static_cast<int>(rng.NextU64() % 4);  // 2..5 warm copies
  uint64_t total_node_bytes = 0;
  uint64_t first_node_bytes = 0;
  for (int i = 0; i < k; ++i) {
    auto outcome = engine.Restore(profile, ctx);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(engine.OnExecute(profile, *outcome->instance, ctx).ok());
    engine.OnExecuteDone(*outcome->instance);
    SandboxFootprint fp = FootprintModel::Of(*outcome->instance);
    // Template pages live in the shared pool and are visible to the
    // instance, but are excluded from its node-local bill.
    EXPECT_GT(fp.shared_pool_pages, 0u);
    EXPECT_EQ(fp.NodeBytes(), fp.private_bytes + fp.metadata_bytes);
    EXPECT_EQ(fp.private_bytes,
              outcome->instance->ResidentLocalPages() * kPageSize);
    if (i == 0) first_node_bytes = fp.NodeBytes();
    total_node_bytes += fp.NodeBytes();
    instances.push_back(std::move(outcome->instance));
  }
  // Additional copies of the same function dedup to zero new stored pages:
  // the shared image is counted once globally, not once per instance.
  EXPECT_EQ(dedup.stored_unique_pages(), unique_after_prepare);
  // Node cost scales with private state only — K identical instances bill
  // exactly K times one instance, with no shared-page inflation.
  EXPECT_EQ(total_node_bytes, static_cast<uint64_t>(k) * first_node_bytes);
  for (auto& instance : instances) {
    engine.Retire(std::move(instance), ctx);
  }
  EXPECT_EQ(frames.used_bytes(), 0u);
}

}  // namespace
}  // namespace trenv
