// Tests for the shared-state data plane (src/shstate/): region lifecycle,
// owner/reader PTE states, single-writer invalidation, leases, Nexus-style
// ownership transfer, crash recovery, and the stateful pipeline driver.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/dram_pool.h"
#include "src/platform/cluster.h"
#include "src/shstate/pipeline_driver.h"
#include "src/shstate/region_manager.h"
#include "src/workload/pipeline.h"

namespace trenv {
namespace {

constexpr uint64_t kPages = 8;

class ShStateTest : public ::testing::Test {
 protected:
  ShStateTest() : cxl_(64 * kMiB) {
    backends_.Register(&cxl_);
    tiered_.AddTier(&cxl_);
  }

  ShStateConfig Config() {
    ShStateConfig config;
    config.enabled = true;
    config.pool_nodes = 2;  // workers 0/2 share home 0, workers 1/3 home 1
    config.lease_ttl = SimDuration::Seconds(10);
    return config;
  }

  CxlPool cxl_;
  BackendRegistry backends_;
  obs::Registry stats_;
  TieredPool tiered_;
  EventScheduler clock_;
};

TEST_F(ShStateTest, CreateMapsOwnerWithSharedOwnerFlags) {
  RegionManager mgr(Config(), /*workers=*/4, &tiered_, &backends_, &clock_, stats_);
  auto id_or = mgr.CreateRegion("r", kPages, /*owner=*/1);
  ASSERT_TRUE(id_or.ok());
  const RegionId id = *id_or;
  EXPECT_EQ(mgr.OwnerOf(id), 1);
  EXPECT_EQ(mgr.HomeNodeOf(id), 1u);  // HomeOf(1) with 2 pool nodes
  const Vpn window = mgr.WindowOf(id);
  for (uint64_t i = 0; i < kPages; ++i) {
    auto pte = mgr.worker_mm(1).page_table().Lookup(window + i);
    ASSERT_TRUE(pte.has_value());
    EXPECT_TRUE(pte->flags.valid);
    EXPECT_FALSE(pte->flags.write_protected);
    EXPECT_TRUE(pte->flags.shared);
    EXPECT_TRUE(pte->flags.owner);
    EXPECT_FALSE(pte->flags.dirty);
    EXPECT_EQ(pte->flags.pool, PoolKind::kCxl);
  }
  // No other worker maps the window.
  EXPECT_FALSE(mgr.worker_mm(0).page_table().IsMapped(window));
}

TEST_F(ShStateTest, LocalDramCannotBackARegion) {
  // A pool with only a local-DRAM tier cannot host shared regions.
  DramPool dram(64 * kMiB);
  BackendRegistry registry;
  registry.Register(&dram);
  TieredPool local_only;
  local_only.AddTier(&dram);
  RegionManager mgr(Config(), 2, &local_only, &registry, &clock_, stats_);
  auto id_or = mgr.CreateRegion("r", kPages, 0);
  EXPECT_FALSE(id_or.ok());
  EXPECT_EQ(id_or.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ShStateTest, OwnerWriteSetsDirtyAndBumpsVersion) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  auto op = mgr.WriteRegion(id, 0, SimTime::Zero());
  ASSERT_TRUE(op.ok());
  EXPECT_GT(op->latency, SimDuration::Zero());
  EXPECT_EQ(mgr.RegionVersion(id), 1u);
  EXPECT_EQ(mgr.pool_write_bytes(), kPages * kPageSize);
  auto pte = mgr.worker_mm(0).page_table().Lookup(mgr.WindowOf(id));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(pte->flags.dirty);
  EXPECT_TRUE(pte->flags.owner);
}

TEST_F(ShStateTest, NonOwnerWriteIsRefused) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 1, SimTime::Zero()).ok());
  auto op = mgr.WriteRegion(id, 1, SimTime::Zero());
  EXPECT_FALSE(op.ok());
  EXPECT_EQ(op.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(ShStateTest, ReaderMappingIsWriteProtectedShared) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 2, SimTime::Zero()).ok());
  EXPECT_TRUE(mgr.ReaderMapped(id, 2));
  auto pte = mgr.worker_mm(2).page_table().Lookup(mgr.WindowOf(id));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(pte->flags.valid);
  EXPECT_TRUE(pte->flags.write_protected);
  EXPECT_TRUE(pte->flags.shared);
  EXPECT_FALSE(pte->flags.owner);
}

TEST_F(ShStateTest, OwnerWriteRevokesReadersAndReadRefetches) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 1, SimTime::Zero()).ok());
  ASSERT_TRUE(mgr.OpenReader(id, 2, SimTime::Zero()).ok());
  // Warm read: direct remote load, no refetch traffic.
  auto warm = mgr.ReadRegion(id, 1, SimTime::Zero());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(mgr.refetch_bytes(), 0u);

  const SimTime t = SimTime::Zero() + SimDuration::Millis(1);
  auto write = mgr.WriteRegion(id, 0, t);
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(mgr.invalidations(), 2u);
  EXPECT_FALSE(mgr.ReaderMapped(id, 1));
  EXPECT_FALSE(mgr.ReaderMapped(id, 2));
  // The shootdown unmap lands on the plane's clock.
  mgr.clock().RunUntil(t + SimDuration::Seconds(1));
  EXPECT_FALSE(mgr.worker_mm(1).page_table().IsMapped(mgr.WindowOf(id)));

  // The revoked reader's next read re-maps and streams the region back in.
  auto cold = mgr.ReadRegion(id, 1, t + SimDuration::Seconds(1));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(mgr.refetch_bytes(), kPages * kPageSize);
  EXPECT_GT(cold->latency, warm->latency);
  EXPECT_TRUE(mgr.ReaderMapped(id, 1));
}

TEST_F(ShStateTest, ReopenBeforeShootdownEventKeepsWindowMapped) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 1, SimTime::Zero()).ok());
  ASSERT_TRUE(mgr.WriteRegion(id, 0, SimTime::Zero()).ok());  // revokes reader 1
  // Reader 1 re-opens before the deferred shootdown unmap runs; the stale
  // event must not clobber the fresh mapping.
  ASSERT_TRUE(mgr.OpenReader(id, 1, SimTime::Zero()).ok());
  // Run past the shootdown event but not the 10s lease TTL (an idle reader
  // legitimately unmaps at expiry).
  mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(1));
  EXPECT_TRUE(mgr.ReaderMapped(id, 1));
  EXPECT_TRUE(mgr.worker_mm(1).page_table().IsMapped(mgr.WindowOf(id)));
}

TEST_F(ShStateTest, SameHomeTransferIsMetadataOnly) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  // Workers 0 and 2 share pool home 0 (2 pool nodes).
  auto op = mgr.Transfer(id, 0, 2, SimTime::Zero());
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op->moved_bytes, 0u);
  EXPECT_EQ(mgr.migrations(), 0u);
  EXPECT_EQ(mgr.transfers(), 1u);
  EXPECT_EQ(mgr.OwnerOf(id), 2);
  EXPECT_EQ(mgr.HomeNodeOf(id), 0u);
  // Ownership moved: old owner's window is gone, new owner's carries the bit.
  EXPECT_FALSE(mgr.worker_mm(0).page_table().IsMapped(mgr.WindowOf(id)));
  auto pte = mgr.worker_mm(2).page_table().Lookup(mgr.WindowOf(id));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(pte->flags.owner);
}

TEST_F(ShStateTest, CrossHomeTransferMigratesPoolToPool) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  auto meta = mgr.Transfer(id, 0, 2, SimTime::Zero());
  ASSERT_TRUE(meta.ok());
  auto op = mgr.Transfer(id, 2, 1, SimTime::Zero());  // home 0 -> home 1
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op->moved_bytes, kPages * kPageSize);
  EXPECT_GT(op->latency, meta->latency);
  EXPECT_EQ(mgr.migrations(), 1u);
  EXPECT_EQ(mgr.moved_bytes(), kPages * kPageSize);
  EXPECT_EQ(mgr.HomeNodeOf(id), 1u);
}

TEST_F(ShStateTest, TransferRequiresOwnership) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  auto op = mgr.Transfer(id, 1, 2, SimTime::Zero());
  EXPECT_FALSE(op.ok());
  EXPECT_EQ(op.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(ShStateTest, LeaseExpiryUnmapsIdleReader) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 3, SimTime::Zero()).ok());
  EXPECT_EQ(mgr.lease_grants(), 1u);
  mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(11));
  EXPECT_EQ(mgr.leases_expired(), 1u);
  EXPECT_FALSE(mgr.ReaderMapped(id, 3));
  EXPECT_FALSE(mgr.worker_mm(3).page_table().IsMapped(mgr.WindowOf(id)));
}

TEST_F(ShStateTest, ReadRenewsLeaseAcrossTheOriginalWindow) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 3, SimTime::Zero()).ok());
  // Renew at t=8s; the original grant's expiry event at t=10s must see the
  // pushed-out deadline and keep the mapping.
  const SimTime renew = SimTime::Zero() + SimDuration::Seconds(8);
  mgr.clock().RunUntil(renew);
  ASSERT_TRUE(mgr.ReadRegion(id, 3, renew).ok());
  mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(11));
  EXPECT_EQ(mgr.leases_expired(), 0u);
  EXPECT_TRUE(mgr.ReaderMapped(id, 3));
  // ...and the renewed window itself expires once left idle.
  mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(30));
  EXPECT_EQ(mgr.leases_expired(), 1u);
  EXPECT_FALSE(mgr.ReaderMapped(id, 3));
}

TEST_F(ShStateTest, CrashVacatesOwnershipAndRecoveryReacquires) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.WriteRegion(id, 0, SimTime::Zero()).ok());
  ASSERT_TRUE(mgr.OpenReader(id, 1, SimTime::Zero()).ok());

  mgr.ReleaseWorker(0);  // the owner's node crashes
  EXPECT_EQ(mgr.OwnerOf(id), -1);
  EXPECT_FALSE(mgr.worker_mm(0).page_table().IsMapped(mgr.WindowOf(id)));
  // The bytes survive in the pool: version is untouched.
  EXPECT_EQ(mgr.RegionVersion(id), 1u);

  auto op = mgr.AcquireOwnership(id, 2, SimTime::Zero());
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(mgr.ownership_recoveries(), 1u);
  EXPECT_EQ(mgr.OwnerOf(id), 2);
  ASSERT_TRUE(mgr.WriteRegion(id, 2, SimTime::Zero()).ok());
  EXPECT_EQ(mgr.RegionVersion(id), 2u);
}

TEST_F(ShStateTest, CrashedReaderLosesItsLease) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 1, SimTime::Zero()).ok());
  mgr.ReleaseWorker(1);
  EXPECT_FALSE(mgr.ReaderMapped(id, 1));
  EXPECT_FALSE(mgr.worker_mm(1).page_table().IsMapped(mgr.WindowOf(id)));
  // The stale expiry event finds the reader gone and does nothing.
  mgr.clock().RunUntilIdle();
  EXPECT_EQ(mgr.leases_expired(), 0u);
}

TEST_F(ShStateTest, ReadRenewalsKeepOneCheckPending) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  SimTime last;
  for (int64_t i = 0; i < 100; ++i) {
    last = SimTime::Zero() + SimDuration::Millis(10 * i);
    mgr.clock().RunUntil(last);
    ASSERT_TRUE(mgr.ReadRegion(id, 3, last).ok());
  }
  EXPECT_EQ(mgr.lease_grants(), 100u);
  EXPECT_EQ(mgr.clock().pending_count(), 1u);
  const SimTime deadline = last + SimDuration::Seconds(10);
  mgr.clock().RunUntil(deadline - SimDuration::Nanos(1));
  EXPECT_TRUE(mgr.ReaderMapped(id, 3));
  mgr.clock().RunUntil(deadline);
  EXPECT_EQ(mgr.leases_expired(), 1u);
  EXPECT_FALSE(mgr.ReaderMapped(id, 3));
  EXPECT_EQ(mgr.clock().pending_count(), 0u);
}

// Worker 2 opens a reader at 0 s, loses it at 3 s through `drop`, and opens
// again at 7 s. The 0 s grant's check, still pending, re-arms at 17 s, where
// the lease expires once.
void ExpectReopenedReaderExpiresOnce(RegionManager& mgr,
                                     const std::function<void(RegionId)>& drop) {
  const auto at = [](int64_t seconds) { return SimTime::Zero() + SimDuration::Seconds(seconds); };
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 2, at(0)).ok());
  mgr.clock().RunUntil(at(3));
  drop(id);
  EXPECT_FALSE(mgr.ReaderMapped(id, 2));
  mgr.clock().RunUntil(at(7));
  ASSERT_TRUE(mgr.OpenReader(id, 2, at(7)).ok());
  mgr.clock().RunUntil(at(17) - SimDuration::Nanos(1));
  EXPECT_TRUE(mgr.ReaderMapped(id, 2));
  EXPECT_EQ(mgr.leases_expired(), 0u);
  mgr.clock().RunUntil(at(17));
  EXPECT_FALSE(mgr.ReaderMapped(id, 2));
  EXPECT_FALSE(mgr.worker_mm(2).page_table().IsMapped(mgr.WindowOf(id)));
  mgr.clock().RunUntilIdle();
  EXPECT_EQ(mgr.leases_expired(), 1u);
}

TEST_F(ShStateTest, ReaderReleasedAndReopenedExpiresOnce) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  ExpectReopenedReaderExpiresOnce(mgr, [&](RegionId) { mgr.ReleaseWorker(2); });
}

TEST_F(ShStateTest, ReaderTransferredToAndReopenedExpiresOnce) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  ExpectReopenedReaderExpiresOnce(mgr, [&](RegionId id) {
    // Ownership to the reader drops its lease; handing it back lets it read.
    const SimTime now = mgr.clock().now();
    ASSERT_TRUE(mgr.Transfer(id, 0, 2, now).ok());
    ASSERT_TRUE(mgr.Transfer(id, 2, 0, now).ok());
  });
}

TEST_F(ShStateTest, ReaderOpsRejectAnOutOfRangeWorker) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  for (const uint32_t worker : {4u, 1000u}) {
    EXPECT_EQ(mgr.OpenReader(id, worker, SimTime::Zero()).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(mgr.ReadRegion(id, worker, SimTime::Zero()).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(mgr.ReaderMapped(id, worker));
  }
  EXPECT_EQ(mgr.lease_grants(), 0u);
  EXPECT_EQ(mgr.clock().pending_count(), 0u);
}

TEST_F(ShStateTest, DestroyFreesPoolPagesAndUnmapsEverything) {
  RegionManager mgr(Config(), 4, &tiered_, &backends_, &clock_, stats_);
  const uint64_t before = cxl_.used_bytes();
  const RegionId id = *mgr.CreateRegion("r", kPages, 0);
  ASSERT_TRUE(mgr.OpenReader(id, 1, SimTime::Zero()).ok());
  EXPECT_GT(cxl_.used_bytes(), before);
  ASSERT_TRUE(mgr.DestroyRegion(id).ok());
  EXPECT_EQ(cxl_.used_bytes(), before);
  EXPECT_FALSE(mgr.worker_mm(0).page_table().IsMapped(mgr.WindowOf(id)));
  EXPECT_FALSE(mgr.worker_mm(1).page_table().IsMapped(mgr.WindowOf(id)));
  // Operations on a destroyed region fail cleanly.
  EXPECT_FALSE(mgr.WriteRegion(id, 0, SimTime::Zero()).ok());
}

// ------------------------------------------------------------ PipelineDriver

PipelineSpec ChainSpec() {
  return MakeChainPipeline(4, /*payload_pages=*/64, {"JS", "DH", "IR", "CR"});
}

std::vector<SimTime> Arrivals(uint32_t jobs) {
  Rng rng(7);
  return MakePipelineArrivals(jobs, /*rate_per_sec=*/20.0, rng);
}

TEST(PipelineDriverTest, ChainCompletesEveryStageWithSharedHandoffs) {
  ClusterConfig config;
  config.nodes = 4;
  config.shstate.enabled = true;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  PipelineDriver driver(&cluster, DataPlaneMode::kTrEnvShared);
  ASSERT_TRUE(driver.Run(ChainSpec(), Arrivals(8)).ok());
  const PipelineRunStats& s = driver.stats();
  EXPECT_EQ(s.jobs_completed, 8u);
  EXPECT_EQ(s.stages_completed, 32u);
  EXPECT_EQ(cluster.accepted_invocations(), s.stages_completed);
  // Chain handoffs stay on the producer's node: pure metadata, zero fabric
  // bytes; the payload writes all land in the pool.
  EXPECT_EQ(s.handoff_bytes, 0u);
  EXPECT_GT(s.pool_write_bytes, 0u);
  // All regions were destroyed at job completion.
  RegionManager& sh = *cluster.shared_state();
  for (RegionId id = 0; id < sh.region_count(); ++id) {
    EXPECT_FALSE(sh.WriteRegion(id, 0, SimTime::Zero()).ok()) << "region " << id;
  }
}

TEST(PipelineDriverTest, FanOutExercisesReadersAndInvalidation) {
  ClusterConfig config;
  config.nodes = 4;
  config.shstate.enabled = true;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  PipelineDriver driver(&cluster, DataPlaneMode::kTrEnvShared);
  const PipelineSpec spec = MakeFanOutFanInPipeline(3, 64, {"JS", "DH", "IR", "CR"});
  ASSERT_TRUE(driver.Run(spec, Arrivals(6)).ok());
  const PipelineRunStats& s = driver.stats();
  EXPECT_EQ(s.jobs_completed, 6u);
  EXPECT_EQ(s.stages_completed, 6u * 5u);
  EXPECT_EQ(cluster.accepted_invocations(), s.stages_completed);
  EXPECT_GT(s.invalidations, 0u);  // branch writes revoke sibling readers
}

TEST(PipelineDriverTest, BaselineModesMoveTwoCrossingsPerEdge) {
  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(config);  // shstate stays disabled: baselines don't need it
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  PipelineDriver driver(&cluster, DataPlaneMode::kCopyThroughWorker);
  const PipelineSpec spec = ChainSpec();
  ASSERT_TRUE(driver.Run(spec, Arrivals(4)).ok());
  const uint64_t payload = 64 * kPageSize;
  EXPECT_EQ(driver.stats().handoff_bytes, 4u * spec.EdgeCount() * 2u * payload);
  EXPECT_EQ(driver.stats().jobs_completed, 4u);
}

TEST(PipelineDriverTest, RunsAreDeterministic) {
  auto run = [] {
    ClusterConfig config;
    config.nodes = 4;
    config.shstate.enabled = true;
    Cluster cluster(config);
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    PipelineDriver driver(&cluster, DataPlaneMode::kTrEnvShared);
    EXPECT_TRUE(driver.Run(ChainSpec(), Arrivals(8)).ok());
    return std::make_tuple(driver.stats().stages_completed, driver.stats().handoff_bytes,
                           driver.stats().pool_write_bytes,
                           driver.stats().job_latency_ms.P99());
  };
  EXPECT_EQ(run(), run());
}

TEST(PipelineDriverTest, SharedModeWithoutPlaneStopsAtFirstHandoff) {
  // kTrEnvShared needs the shstate plane. The first stage completion finds it
  // missing; that step's error ends the run, and no later step runs.
  ClusterConfig config;
  config.nodes = 4;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  PipelineDriver driver(&cluster, DataPlaneMode::kTrEnvShared);
  const Status status = driver.Run(ChainSpec(), Arrivals(8));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shstate.enabled"), std::string::npos) << status.ToString();
  EXPECT_EQ(driver.stats().stages_completed, 1u);
  EXPECT_EQ(driver.stats().jobs_completed, 0u);
}

TEST(PipelineDriverTest, BothRackPlanesShareOneClock) {
  // With poolmgr on, each dispatch runs the rack clock to the invocation's
  // start, which can be past the driver's current step. A reader lease that
  // step grants must still expire on that clock, never behind it.
  ClusterConfig config;
  config.nodes = 4;
  config.poolmgr.enabled = true;
  config.shstate.enabled = true;
  config.shstate.lease_ttl = SimDuration::FromMicrosF(1.0);
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  PipelineDriver driver(&cluster, DataPlaneMode::kTrEnvShared);
  const PipelineSpec spec = MakeFanOutFanInPipeline(3, 64, {"JS", "DH", "IR", "CR"});
  ASSERT_TRUE(driver.Run(spec, Arrivals(6)).ok());
  EXPECT_EQ(driver.stats().jobs_completed, 6u);
  EXPECT_EQ(cluster.accepted_invocations(), driver.stats().stages_completed);
  EXPECT_GT(cluster.shared_state()->leases_expired(), 0u);
}

TEST(PipelineDriverTest, OwnerCrashRecoversWithZeroLoss) {
  ClusterConfig config;
  config.nodes = 4;
  config.shstate.enabled = true;
  config.faults.seed = 7;
  // The window must start after the first stage completions (~1s of cold
  // starts) or no region has an owner to lose yet.
  config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Millis(1000),
                                    SimTime::Zero() + SimDuration::Millis(1300),
                                    /*probability=*/1.0, /*node=*/1,
                                    /*restart_after=*/SimDuration::Seconds(2)));
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  PipelineDriver driver(&cluster, DataPlaneMode::kTrEnvShared);
  ASSERT_TRUE(driver.Run(ChainSpec(), Arrivals(12)).ok());
  const PipelineRunStats& s = driver.stats();
  EXPECT_EQ(s.jobs_completed, 12u);
  EXPECT_EQ(s.stages_completed, 48u);
  // Zero accepted-invocation loss: every accepted stage ran to completion.
  EXPECT_EQ(cluster.accepted_invocations(), s.stages_completed);
  // The crashed node owned live regions; survivors re-acquired them.
  EXPECT_GT(s.ownership_recoveries, 0u);
}

}  // namespace
}  // namespace trenv
