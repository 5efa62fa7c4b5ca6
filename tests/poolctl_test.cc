// Tests for the continuous pool control plane (src/poolctl/): the gossip
// failure detector's state machine (suspicion, death, false suspicion,
// rejoin), the budgeted continuous rebalancer, admission shedding, dead-read
// failover, hot-shard replica promotion/demotion, and cluster-level chaos
// with zero accepted-invocation loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "src/common/rng.h"
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

// The view recounted node by node: what alive_in_view() keeps as a counter.
uint32_t RecountInView(const GossipMembership& membership) {
  uint32_t count = 0;
  for (uint32_t n = 0; n < membership.fleet(); ++n) {
    count += membership.InView(n) ? 1 : 0;
  }
  return count;
}

// clock.RunUntil(t), one event (here: one heartbeat tick) at a time, with the
// kept view count checked against a recount after each.
void RunTicksUntil(EventScheduler& clock, const GossipMembership& membership, SimTime t) {
  for (std::optional<SimTime> next = clock.NextEventTime(); next && *next <= t;
       next = clock.NextEventTime()) {
    clock.RunNext();
    EXPECT_EQ(membership.alive_in_view(), RecountInView(membership))
        << "after the tick at " << clock.now().nanos() << " ns";
  }
  clock.RunUntil(t);
}

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
  RunTicksUntil(clock, membership, At(1.0));  // last beat delivered at t=1.0s
  membership.NodeDown(2);
  // phi = silent intervals / interval: suspect at 3 (t=2.5s), dead at 8
  // (t=5.0s).
  RunTicksUntil(clock, membership, At(2.4));
  EXPECT_EQ(membership.state(2), State::kAlive);
  RunTicksUntil(clock, membership, At(2.6));
  EXPECT_EQ(membership.state(2), State::kSuspect);
  EXPECT_TRUE(membership.InView(2));  // suspects still count as members
  EXPECT_EQ(membership.suspicions(), 1u);
  RunTicksUntil(clock, membership, At(5.1));
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
  RunTicksUntil(clock, membership, At(5.6));
  EXPECT_EQ(membership.state(2), State::kJoining);
  EXPECT_FALSE(membership.InView(2));
  RunTicksUntil(clock, membership, At(6.1));
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
  RunTicksUntil(clock, membership, At(3.0));
  EXPECT_EQ(membership.state(1), State::kSuspect);
  EXPECT_EQ(membership.heartbeats_dropped(), 5u);  // ticks 1.0 .. 3.0
  // The window ends before phi reaches the death threshold: the first beat
  // through recovers the node and the suspicion is charged to the network.
  RunTicksUntil(clock, membership, At(3.6));
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
  EXPECT_TRUE(mgr.HoldsLease(0, 1));
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
  EXPECT_TRUE(mgr.HoldsLease(0, 0));
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

// One manager of a differential pair, on its own fabric, clock and
// registry: 16 pool nodes and 24 templates of six 8-page chunks each, all
// contents distinct (144 shards).
struct ChurnRack {
  static constexpr uint32_t kPoolNodes = 16;
  static constexpr uint64_t kChunkPages = 8;

  explicit ChurnRack(uint32_t replication)
      : fabric(kGiB),
        mgr(ContinuousPoolConfig(replication, kPoolNodes), /*worker_nodes=*/2, &fabric, &clock,
            stats) {
    mgr.EnableContinuousControl(ContinuousPoolPolicy{});
    for (FunctionId fid = 0; fid < 24; ++fid) {
      ConsolidatedImage image;
      PlacedRegion placed;
      for (uint64_t c = 0; c < 6; ++c) {
        placed.chunks.push_back(PlacedChunk{.pool = PoolKind::kCxl,
                                            .offset = c * kChunkPages,
                                            .npages = kChunkPages,
                                            .content_base = 0x10000 * (fid + 1) + c * kChunkPages});
      }
      image.processes.push_back({placed});
      image.total_pages = 6 * kChunkPages;
      mgr.RegisterTemplate(fid, image);
    }
  }

  // ReconcileShard over every shard at one target; pages summed, converged
  // only if every shard converged.
  PoolManager::ReconcileResult Sweep(uint32_t target, uint64_t budget_pages) {
    PoolManager::ReconcileResult total;
    for (uint32_t s = 0; s < mgr.shard_count(); ++s) {
      const PoolManager::ReconcileResult one = mgr.ReconcileShard(s, target, budget_pages);
      total.pages_moved += one.pages_moved;
      total.converged = total.converged && one.converged;
    }
    return total;
  }

  RdmaPool fabric;
  obs::Registry stats;
  EventScheduler clock;
  PoolManager mgr;
};

// Every shard holds the same replica set (order aside) in both managers.
::testing::AssertionResult SamePlacement(const PoolManager& a, const PoolManager& b) {
  for (uint32_t s = 0; s < a.shard_count(); ++s) {
    std::vector<uint32_t> x = a.ShardReplicas(s);
    std::vector<uint32_t> y = b.ShardReplicas(s);
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    if (x != y) {
      return ::testing::AssertionFailure() << "shard " << s << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// A settled shard's reconcile returns before walking the ring. Differential
// check: M reconciles shard by shard (settled shards skipped), W re-derives
// every placement with the single-shot RunRebalance, and after every
// membership change both must hold the same replica sets. In a build with
// asserts on, ReconcileShard also recomputes the owners of each shard it
// skips.
TEST(PoolCtlTest, SettledShardsMatchAFullSweepUnderChurn) {
  constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();
  constexpr uint32_t kNodes = ChurnRack::kPoolNodes;
  ChurnRack m(2);
  ChurnRack w(2);
  const uint32_t base = m.mgr.base_replication();
  ASSERT_EQ(m.mgr.shard_count(), 144u);
  std::vector<bool> member(kNodes, true);
  uint32_t members = kNodes;
  SimTime when;
  // One membership step on both managers, then M's two sweeps and W's
  // rebalance.
  const auto settle = [&](int step) {
    const PoolManager::ReconcileResult first = m.Sweep(base, kUnlimited);
    EXPECT_TRUE(first.converged) << "step " << step;
    const PoolManager::ReconcileResult second = m.Sweep(base, kUnlimited);
    EXPECT_EQ(second.pages_moved, 0u) << "step " << step;
    EXPECT_TRUE(second.converged) << "step " << step;
    w.mgr.RunRebalance();
    // Both started the step from equal sets and copy exactly the owners
    // they miss, so they count the same copy traffic too.
    EXPECT_EQ(m.mgr.rebalanced_pages(), w.mgr.rebalanced_pages()) << "step " << step;
    return SamePlacement(m.mgr, w.mgr);
  };
  ASSERT_TRUE(settle(-1));

  Rng rng(20261019);
  int deaths = 0;
  int joins = 0;
  for (int step = 0; step < 200; ++step) {
    when = when + SimDuration::Seconds(1);
    const uint32_t node = static_cast<uint32_t>(rng.NextBounded(kNodes));
    if (member[node] && members > 1) {
      m.mgr.DeclareDead(node);
      w.mgr.DeclareDead(node);
      member[node] = false;
      --members;
      ++deaths;
    } else if (!member[node]) {
      m.mgr.DeclareJoined(node);
      w.mgr.DeclareJoined(node);
      member[node] = true;
      ++members;
      ++joins;
    }
    ASSERT_TRUE(settle(step)) << "step " << step;
  }
  EXPECT_GT(deaths, 50);
  EXPECT_GT(joins, 50);

  // Every node rejoins, so the legs below have room for extra copies.
  for (uint32_t node = 0; node < kNodes; ++node) {
    m.mgr.DeclareJoined(node);
    w.mgr.DeclareJoined(node);
  }
  ASSERT_TRUE(settle(200));

  // Target change. A budget-starved pass at base+2 adds one copy per shard
  // without converging; back at base, those copies must still be dropped,
  // so the starved pass may not leave the base stamp standing.
  const PoolManager::ReconcileResult starved = m.Sweep(base + 2, ChurnRack::kChunkPages);
  EXPECT_FALSE(starved.converged);
  EXPECT_EQ(starved.pages_moved, m.mgr.shard_count() * ChurnRack::kChunkPages);
  EXPECT_FALSE(SamePlacement(m.mgr, w.mgr));
  const PoolManager::ReconcileResult back = m.Sweep(base, kUnlimited);
  EXPECT_TRUE(back.converged);
  EXPECT_EQ(back.pages_moved, 0u);
  EXPECT_TRUE(SamePlacement(m.mgr, w.mgr));
  // A funded pass at base+1 settles every shard at that target, and the
  // pass at base drops the extra copy again.
  const PoolManager::ReconcileResult raised = m.Sweep(base + 1, kUnlimited);
  EXPECT_TRUE(raised.converged);
  EXPECT_EQ(raised.pages_moved, m.mgr.shard_count() * ChurnRack::kChunkPages);
  EXPECT_EQ(m.Sweep(base + 1, kUnlimited).pages_moved, 0u);
  EXPECT_FALSE(SamePlacement(m.mgr, w.mgr));
  EXPECT_TRUE(m.Sweep(base, kUnlimited).converged);
  EXPECT_TRUE(SamePlacement(m.mgr, w.mgr));

  // Lost shard at replication 1: DeclareDead of its only holder erases it,
  // an attach reseeds it onto the current ring, and the next reconcile
  // starts from the reseeded set.
  ChurnRack m1(1);
  ChurnRack w1(1);
  EXPECT_TRUE(m1.Sweep(1, kUnlimited).converged);  // settles every shard
  const uint32_t holder = m1.mgr.ShardReplicas(0).front();
  m1.mgr.DeclareDead(holder);
  w1.mgr.DeclareDead(holder);
  ASSERT_TRUE(m1.mgr.ShardReplicas(0).empty());
  EXPECT_EQ(m1.mgr.reseeded_shards(), 0u);
  (void)m1.mgr.Attach(0, 0, when);  // template 0's first chunk is shard 0
  const std::vector<uint32_t> reseeded = m1.mgr.ShardReplicas(0);
  ASSERT_EQ(reseeded.size(), 1u);
  EXPECT_NE(reseeded.front(), holder);
  const uint64_t reseeds = m1.mgr.reseeded_shards();
  EXPECT_GT(reseeds, 0u);
  const PoolManager::ReconcileResult after = m1.mgr.ReconcileShard(0, 1, kUnlimited);
  EXPECT_TRUE(after.converged);
  EXPECT_EQ(after.pages_moved, 0u);
  EXPECT_EQ(m1.mgr.ShardReplicas(0), reseeded);
  EXPECT_EQ(m1.mgr.reseeded_shards(), reseeds);
  // The other lost shards are reseeded by the sweep, W's by its rebalance:
  // the same shards, counted once each on either path.
  EXPECT_TRUE(m1.Sweep(1, kUnlimited).converged);
  w1.mgr.RunRebalance();
  EXPECT_EQ(m1.mgr.reseeded_shards(), w1.mgr.reseeded_shards());
  EXPECT_TRUE(SamePlacement(m1.mgr, w1.mgr));
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
