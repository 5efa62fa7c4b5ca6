// Tests for the continuous pool control plane (src/poolctl/): the gossip
// failure detector's state machine (suspicion, death, false suspicion,
// rejoin), the budgeted continuous rebalancer, admission shedding, dead-read
// failover, hot-shard replica promotion/demotion, and cluster-level chaos
// with zero accepted-invocation loss.
#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/mempool/rdma_pool.h"
#include "src/platform/cluster.h"
#include "src/poolctl/control_plane.h"
#include "src/poolctl/membership.h"
#include "src/poolmgr/pool_manager.h"
#include "src/sim/event_scheduler.h"

namespace trenv {
namespace {

using State = GossipMembership::State;

SimTime At(double seconds) { return SimTime::Zero() + SimDuration::FromMicrosF(seconds * 1e6); }

// ------------------------------------------------------- GossipMembership

TEST(MembershipTest, FaultFreeFleetStaysAlive) {
  EventScheduler clock;
  obs::Registry stats;
  GossipMembership membership(4, &clock, stats);
  membership.Start(SimTime::Zero());
  clock.RunUntil(At(10.0));
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(membership.state(n), State::kAlive);
    EXPECT_TRUE(membership.InView(n));
  }
  EXPECT_EQ(membership.alive_in_view(), 4u);
  EXPECT_EQ(membership.suspicions(), 0u);
  EXPECT_EQ(membership.deaths(), 0u);
  EXPECT_EQ(membership.epoch(), 0u);
  // 20 ticks in 10s at a 500ms interval, 4 beats each; none lost.
  EXPECT_EQ(membership.heartbeats_sent(), 80u);
  EXPECT_EQ(membership.heartbeats_dropped(), 0u);
  membership.Stop();
  clock.RunUntilIdle();  // nothing pending once stopped
}

TEST(MembershipTest, DeathIsDetectedDeclaredAndRejoined) {
  EventScheduler clock;
  obs::Registry stats;
  GossipMembership membership(4, &clock, stats);
  std::vector<GossipMembership::Transition> log;
  membership.SetListener(
      [&log](const GossipMembership::Transition& t) { log.push_back(t); });
  membership.Start(SimTime::Zero());
  clock.RunUntil(At(1.0));  // last beat delivered at t=1.0s
  membership.NodeDown(2);
  // phi = silent intervals / interval: suspect at 3 (t=2.5s), dead at 8
  // (t=5.0s).
  clock.RunUntil(At(2.4));
  EXPECT_EQ(membership.state(2), State::kAlive);
  clock.RunUntil(At(2.6));
  EXPECT_EQ(membership.state(2), State::kSuspect);
  EXPECT_TRUE(membership.InView(2));  // suspects still count as members
  EXPECT_EQ(membership.suspicions(), 1u);
  clock.RunUntil(At(5.1));
  EXPECT_EQ(membership.state(2), State::kDead);
  EXPECT_FALSE(membership.InView(2));
  EXPECT_EQ(membership.alive_in_view(), 3u);
  EXPECT_EQ(membership.deaths(), 1u);
  EXPECT_EQ(membership.false_suspicions(), 0u);  // a true death
  EXPECT_EQ(membership.epoch(), 1u);
  // Detection latency: down at 1.0s, declared at 5.0s.
  ASSERT_EQ(membership.detection_ms().count(), 1u);
  EXPECT_NEAR(membership.detection_ms().Mean(), 4000.0, 1.0);
  // Rejoin: the node must deliver kJoinBeats consecutive beats; one beat
  // only reaches kJoining.
  membership.NodeUp(2);
  clock.RunUntil(At(5.6));
  EXPECT_EQ(membership.state(2), State::kJoining);
  EXPECT_FALSE(membership.InView(2));
  clock.RunUntil(At(6.1));
  EXPECT_EQ(membership.state(2), State::kAlive);
  EXPECT_EQ(membership.rejoins(), 1u);
  EXPECT_EQ(membership.epoch(), 2u);
  membership.Stop();
  // The full state machine walked alive -> suspect -> dead -> joining ->
  // alive, in order.
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].to, State::kSuspect);
  EXPECT_EQ(log[1].to, State::kDead);
  EXPECT_EQ(log[2].to, State::kJoining);
  EXPECT_EQ(log[3].to, State::kAlive);
  EXPECT_EQ(log[3].from, State::kJoining);
}

TEST(MembershipTest, FlapWindowCausesFalseSuspicionNotDeath) {
  EventScheduler clock;
  obs::Registry stats;
  GossipMembership membership(4, &clock, stats);
  // Node 1's beats are eaten by the fabric for [1.0s, 3.5s) — the node
  // itself never goes down.
  membership.SetHeartbeatLoss([](SimTime now, uint32_t node) {
    return node == 1 && now >= At(1.0) && now < At(3.5) ? 1.0 : 0.0;
  });
  membership.Start(SimTime::Zero());
  clock.RunUntil(At(3.0));
  EXPECT_EQ(membership.state(1), State::kSuspect);
  EXPECT_EQ(membership.heartbeats_dropped(), 5u);  // ticks 1.0 .. 3.0
  // The window ends before phi reaches the death threshold: the first beat
  // through recovers the node and the suspicion is charged to the network.
  clock.RunUntil(At(3.6));
  EXPECT_EQ(membership.state(1), State::kAlive);
  EXPECT_EQ(membership.false_suspicions(), 1u);
  EXPECT_EQ(membership.deaths(), 0u);
  EXPECT_EQ(membership.epoch(), 0u);
  EXPECT_EQ(membership.detection_ms().count(), 0u);
  membership.Stop();
}

TEST(MembershipTest, ShortBlipNeverReachesSuspicion) {
  EventScheduler clock;
  obs::Registry stats;
  GossipMembership membership(4, &clock, stats);
  membership.Start(SimTime::Zero());
  clock.RunUntil(At(1.1));
  membership.NodeDown(3);
  clock.RunUntil(At(1.9));
  membership.NodeUp(3);  // back before phi accrued to kPhiSuspect
  clock.RunUntil(At(6.0));
  EXPECT_EQ(membership.state(3), State::kAlive);
  EXPECT_EQ(membership.suspicions(), 0u);
  EXPECT_EQ(membership.deaths(), 0u);
  membership.Stop();
}

// ------------------------------------------- PoolManager continuous policy

ConsolidatedImage TwoChunkImage(PageContent content_a, PageContent content_b) {
  ConsolidatedImage image;
  PlacedRegion placed;
  placed.chunks.push_back(
      PlacedChunk{.pool = PoolKind::kCxl, .offset = 0, .npages = 512, .content_base = content_a});
  placed.chunks.push_back(PlacedChunk{
      .pool = PoolKind::kCxl, .offset = 512, .npages = 512, .content_base = content_b});
  image.processes.push_back({placed});
  image.total_pages = 1024;
  return image;
}

PoolManagerConfig ContinuousPoolConfig(uint32_t replication, uint32_t pool_nodes = 4) {
  PoolManagerConfig config;
  config.enabled = true;
  config.pool_nodes = pool_nodes;
  config.replication = replication;
  config.lease_ttl = SimDuration::Seconds(10);
  return config;
}

TEST(PoolCtlTest, BackloggedNicShedsColdAttachToNas) {
  RdmaPool fabric(kGiB);
  obs::Registry stats;
  EventScheduler clock;
  PoolManager mgr(ContinuousPoolConfig(2), /*worker_nodes=*/2, &fabric, &clock, stats);
  ContinuousPoolPolicy policy;
  policy.shed_queue_threshold = SimDuration::FromMicrosF(10.0);
  mgr.EnableContinuousControl(policy);
  mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  mgr.RegisterTemplate(1, TwoChunkImage(0xCC, 0xDD));
  // First cold attach fills worker 0's NIC; the second lands at the same
  // instant behind that backlog and is shed whole to the NAS path.
  const auto first = mgr.Attach(0, 0, SimTime::Zero());
  EXPECT_EQ(first.fetched_pages, 1024u);
  EXPECT_GT(mgr.NicBacklog(0, SimTime::Zero()), policy.shed_queue_threshold);
  const auto shed = mgr.Attach(0, 1, SimTime::Zero());
  EXPECT_FALSE(shed.lease_hit);
  EXPECT_EQ(shed.fetched_pages, 0u);  // no NIC pages: NAS served it
  EXPECT_EQ(mgr.shed_attaches(), 1u);
  EXPECT_EQ(mgr.shed_pages(), 1024u);
  EXPECT_EQ(mgr.nas_fallback_pages(), 1024u);
  // Shed, not dropped: the NAS path is slower than metadata but the lease
  // is granted all the same.
  EXPECT_GT(shed.latency, SimDuration::Zero());
  EXPECT_EQ(mgr.LeaseRefs(0, 1), 1u);
  // Worker 1's NIC is idle: same attach, no shed.
  const auto other = mgr.Attach(1, 1, SimTime::Zero());
  EXPECT_EQ(other.fetched_pages, 1024u);
  EXPECT_EQ(mgr.shed_attaches(), 1u);
}

TEST(PoolCtlTest, DeadReadsSkipToLiveReplica) {
  RdmaPool fabric(kGiB);
  obs::Registry stats;
  EventScheduler clock;
  PoolManager mgr(ContinuousPoolConfig(2), /*worker_nodes=*/2, &fabric, &clock, stats);
  ContinuousPoolPolicy policy;
  policy.spread_reads = false;  // always start at the primary: the dead hop
                                // below is then deterministic
  mgr.EnableContinuousControl(policy);
  mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  // The primary goes silent but is NOT declared dead: placement keeps it,
  // and a lease-miss read pays one timed-out hop before failing over to the
  // surviving replica.
  const uint32_t down = mgr.ShardReplicas(0).front();
  mgr.OnPoolNodeDown(down);
  const auto attach = mgr.Attach(0, 0, SimTime::Zero());
  EXPECT_EQ(attach.fetched_pages, 1024u);  // still served remotely in full
  EXPECT_GE(mgr.dead_read_hops(), 1u);
  EXPECT_EQ(mgr.leases_revoked(), 0u);
  EXPECT_EQ(mgr.replica_promotions(), 0u);  // no ring surgery happened
  EXPECT_TRUE(mgr.ShardUnderReplicated(0));  // poolctl's restore signal
  mgr.OnPoolNodeUp(down);
  EXPECT_FALSE(mgr.ShardUnderReplicated(0));
}

TEST(PoolCtlTest, AllReplicasDownFallsBackToNas) {
  RdmaPool fabric(kGiB);
  obs::Registry stats;
  EventScheduler clock;
  PoolManager mgr(ContinuousPoolConfig(2), /*worker_nodes=*/2, &fabric, &clock, stats);
  mgr.EnableContinuousControl(ContinuousPoolPolicy{});
  mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  for (uint32_t n = 0; n < 4; ++n) {
    mgr.OnPoolNodeDown(n);
  }
  // Every listed replica is unreachable and none declared dead: the attach
  // falls back to NAS for every shard — slower, but never dropped and still
  // leased.
  const auto attach = mgr.Attach(0, 0, SimTime::Zero());
  EXPECT_FALSE(attach.lease_hit);
  EXPECT_EQ(attach.fetched_pages, 0u);
  EXPECT_EQ(mgr.nas_fallback_pages(), 1024u);
  EXPECT_EQ(mgr.LeaseRefs(0, 0), 1u);
  EXPECT_GT(attach.latency, SimDuration::Zero());
}

TEST(PoolCtlTest, ReconcileShardHonorsBudgetAndConverges) {
  RdmaPool fabric(kGiB);
  obs::Registry stats;
  EventScheduler clock;
  PoolManager mgr(ContinuousPoolConfig(1), /*worker_nodes=*/2, &fabric, &clock, stats);
  mgr.EnableContinuousControl(ContinuousPoolPolicy{});
  mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  ASSERT_EQ(mgr.ShardReplicas(0).size(), 1u);
  // Budget below the shard size: nothing moves, not converged.
  const auto starved = mgr.ReconcileShard(0, 2, /*budget_pages=*/100);
  EXPECT_EQ(starved.pages_moved, 0u);
  EXPECT_FALSE(starved.converged);
  EXPECT_EQ(mgr.ShardReplicas(0).size(), 1u);
  // Budget covers the copy: one replica added, converged.
  const auto funded = mgr.ReconcileShard(0, 2, /*budget_pages=*/512);
  EXPECT_EQ(funded.pages_moved, 512u);
  EXPECT_TRUE(funded.converged);
  EXPECT_EQ(mgr.ShardReplicas(0).size(), 2u);
  // Idempotent: reconciling a converged shard moves nothing.
  const auto again = mgr.ReconcileShard(0, 2, /*budget_pages=*/512);
  EXPECT_EQ(again.pages_moved, 0u);
  EXPECT_TRUE(again.converged);
  // Demotion back to the base factor is a free metadata drop.
  const auto demoted = mgr.ReconcileShard(0, 1, /*budget_pages=*/0);
  EXPECT_EQ(demoted.pages_moved, 0u);
  EXPECT_TRUE(demoted.converged);
  EXPECT_EQ(mgr.ShardReplicas(0).size(), 1u);
}

// --------------------------------------------------------- PoolControlPlane

TEST(PoolCtlTest, HotShardGainsExtraReplicasAndDecaysBack) {
  RdmaPool fabric(kGiB);
  auto pool_config = ContinuousPoolConfig(1, /*pool_nodes=*/8);
  pool_config.lease_ttl = SimDuration::Millis(40);  // every round is a miss
  obs::Registry stats;
  EventScheduler clock;
  PoolManager mgr(pool_config, /*worker_nodes=*/4, &fabric, &clock, stats);
  PoolCtlConfig ctl;
  ctl.enabled = true;
  ctl.hot_promote_score = 4;
  ctl.max_extra_replicas = 2;
  PoolControlPlane plane(ctl, &mgr, nullptr, stats, nullptr);
  plane.Start(SimTime::Zero());
  mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  // Hammer the template from every worker: each 100ms round is 4 fresh
  // lease misses, far above the promote threshold per 500ms tick.
  SimTime t = SimTime::Zero();
  for (int round = 1; round <= 30; ++round) {
    t = SimTime::Zero() + SimDuration::Millis(100) * round;
    mgr.clock().RunUntil(t);
    for (uint32_t worker = 0; worker < 4; ++worker) {
      (void)mgr.Attach(worker, 0, t);
    }
  }
  mgr.clock().RunUntil(t + SimDuration::Millis(600));  // one more tick
  EXPECT_GT(plane.hot_promotions(), 0u);
  EXPECT_EQ(plane.ExtraReplicas(0), 2u);
  EXPECT_EQ(plane.ExtraReplicas(1), 2u);
  // The promoted copies are real placements beyond the static factor.
  EXPECT_EQ(mgr.ShardReplicas(0).size(), 3u);
  EXPECT_EQ(mgr.ShardReplicas(1).size(), 3u);
  EXPECT_GT(plane.pages_moved(), 0u);
  // Traffic stops: the decaying score demotes the extras and the reconcile
  // drops them back to the base factor (metadata-only).
  mgr.clock().RunUntil(t + SimDuration::Seconds(6));
  EXPECT_GT(plane.hot_demotions(), 0u);
  EXPECT_EQ(plane.ExtraReplicas(0), 0u);
  EXPECT_EQ(mgr.ShardReplicas(0).size(), 1u);
  EXPECT_EQ(mgr.ShardReplicas(1).size(), 1u);
  plane.Quiesce();
  mgr.clock().RunUntilIdle();
}

// ------------------------------------------------------------ Cluster level

ClusterConfig PoolCtlClusterConfig() {
  ClusterConfig config;
  config.nodes = 4;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = 8;
  config.poolmgr.replication = 2;
  config.poolctl.enabled = true;
  return config;
}

Schedule SpacedSchedule(int count, SimDuration gap, const std::string& function) {
  Schedule schedule;
  for (int i = 0; i < count; ++i) {
    schedule.push_back({SimTime::Zero() + gap * i, function});
  }
  return schedule;
}

TEST(PoolCtlClusterTest, DisabledByDefault) {
  Cluster plain(ClusterConfig{});
  EXPECT_EQ(plain.pool_control(), nullptr);
  ClusterConfig pool_only = PoolCtlClusterConfig();
  pool_only.poolctl.enabled = false;
  Cluster cluster(pool_only);
  EXPECT_NE(cluster.pool_manager(), nullptr);
  EXPECT_EQ(cluster.pool_control(), nullptr);
  EXPECT_FALSE(cluster.pool_manager()->continuous());
}

TEST(PoolCtlClusterTest, CrashIsDeclaredRestoredAndRejoinedWithZeroLoss) {
  ClusterConfig config = PoolCtlClusterConfig();
  // Pool node 1 dies at ~2s and restarts 6s later: the detector needs ~4s
  // of silence to declare it, the rebalancer restores replication, and the
  // rejoin re-admits it — all while invocations keep arriving.
  config.faults.Add(PoolCrashWindow(At(2.0), At(2.1), /*probability=*/1.0,
                                    /*pool_node=*/1,
                                    /*restart_after=*/SimDuration::Seconds(6)));
  // Table4's 859 shards put ~106k pages on the dead node; the restore pass
  // gets ~10 ticks between declaration (~6s) and trace end, so give each
  // tick enough budget to finish re-replicating within the trace.
  config.poolctl.rebalance_budget_pages = 32768;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  ASSERT_TRUE(cluster.Run(SpacedSchedule(36, SimDuration::Millis(300), "JS")).ok());
  ASSERT_NE(cluster.pool_control(), nullptr);
  const GossipMembership& membership = cluster.pool_control()->membership();
  // Zero accepted-invocation loss through death, declaration, and rejoin.
  EXPECT_EQ(cluster.accepted_invocations(), 36u);
  EXPECT_EQ(cluster.TotalInvocations(), 36u);
  EXPECT_GE(membership.deaths(), 1u);
  EXPECT_GE(membership.rejoins(), 1u);
  EXPECT_GE(membership.epoch(), 2u);
  EXPECT_GE(membership.detection_ms().count(), 1u);
  // Replication restored by trace end — earned by the continuous loop, not
  // a drain-time converge.
  EXPECT_EQ(cluster.pool_manager()->UnderReplicatedShards(), 0u);
  EXPECT_GT(cluster.pool_control()->rebalance_ticks(), 0u);
}

TEST(PoolCtlClusterTest, FlapStormCausesFalseSuspicionsWithoutLoss) {
  ClusterConfig config = PoolCtlClusterConfig();
  // Every pool node's heartbeats are eaten for [1s, 4s) — long enough to
  // suspect the whole fleet, short enough that nobody is declared dead.
  config.faults.Add(LinkFaultWindow(FaultDomain::kRdmaFlap, At(1.0), At(4.0),
                                    /*probability=*/1.0));
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  ASSERT_TRUE(cluster.Run(SpacedSchedule(16, SimDuration::Millis(300), "JS")).ok());
  ASSERT_NE(cluster.pool_control(), nullptr);
  const GossipMembership& membership = cluster.pool_control()->membership();
  EXPECT_GT(membership.false_suspicions(), 0u);
  EXPECT_EQ(membership.deaths(), 0u);  // nobody was actually down
  EXPECT_EQ(cluster.pool_manager()->leases_revoked(), 0u);
  EXPECT_EQ(cluster.accepted_invocations(), 16u);
  EXPECT_EQ(cluster.TotalInvocations(), 16u);
  EXPECT_EQ(cluster.pool_manager()->UnderReplicatedShards(), 0u);
}

TEST(PoolCtlClusterTest, ContinuousRunsAreDeterministic) {
  const auto fingerprint = [] {
    ClusterConfig config = PoolCtlClusterConfig();
    config.faults.Add(PoolCrashWindow(At(1.0), At(1.5), 1.0, /*pool_node=*/2,
                                      /*restart_after=*/SimDuration::Seconds(5)));
    config.faults.Add(LinkFaultWindow(FaultDomain::kRdmaFlap, At(2.0), At(3.0),
                                      /*probability=*/0.6));
    Cluster cluster(config);
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    EXPECT_TRUE(cluster.Run(SpacedSchedule(24, SimDuration::Millis(300), "CR")).ok());
    const PoolManager& mgr = *cluster.pool_manager();
    const GossipMembership& membership = cluster.pool_control()->membership();
    return std::make_tuple(cluster.AggregateMetrics().e2e_ms.Mean(), mgr.remote_fetch_pages(),
                           mgr.lease_hits(), mgr.dead_read_hops(), mgr.nas_fallback_pages(),
                           membership.heartbeats_dropped(), membership.suspicions(),
                           membership.deaths(), membership.rejoins(),
                           cluster.pool_control()->pages_moved(),
                           mgr.attach_ms().Percentile(99));
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

}  // namespace
}  // namespace trenv
