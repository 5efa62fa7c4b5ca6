// Cluster::RunSharded determinism contract: output is byte-identical at any
// --shards setting, and with zero lookahead byte-identical to the sequential
// per-arrival loop (RunLegacyLoop below). RunSharded is that loop over the
// same public steps, with its shard coordinator and per-node inboxes
// installed; RunLegacyLoop calls the steps with neither, so it checks that
// the shards and inboxes change nothing. "Byte-identical" is checked through
// a fingerprint that serializes every externally observable quantity
// (per-function histograms at full precision, per-node memory, every registry
// counter), so any divergence in event ordering, RNG draws, or placement
// shows up as a string mismatch.
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/platform/cluster.h"
#include "src/workload/arrival_stream.h"

namespace trenv {
namespace {

void FingerprintHistogram(std::ostringstream& out, const char* label, const Histogram& h) {
  out << ' ' << label << ":n=" << h.count();
  if (!h.empty()) {
    out << ",min=" << h.Min() << ",max=" << h.Max() << ",mean=" << h.Mean()
        << ",sd=" << h.Stddev() << ",p50=" << h.Median() << ",p99=" << h.P99();
  }
}

std::string Fingerprint(const Cluster& cluster) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "accepted=" << cluster.accepted_invocations() << '\n';
  Cluster& mut = const_cast<Cluster&>(cluster);
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    ServerlessPlatform& node = mut.node(i);
    out << "node " << i << " alive=" << cluster.node_alive(i)
        << " failed=" << node.failed_invocations()
        << " frames=" << node.frames().used_bytes()
        << " frames_peak=" << node.frames().peak_used_bytes()
        << " mem_peak=" << node.metrics().peak_memory_bytes()
        << " fetch_cpu=" << node.metrics().fetch_cpu_seconds() << '\n';
    for (const auto& [fn, m] : node.metrics().per_function()) {
      out << "  fn " << fn << " inv=" << m.invocations << " warm=" << m.warm_starts
          << " cold=" << m.cold_starts << " rep=" << m.repurposed_starts;
      FingerprintHistogram(out, "e2e", m.e2e_ms);
      FingerprintHistogram(out, "startup", m.startup_ms);
      FingerprintHistogram(out, "exec", m.exec_ms);
      out << '\n';
    }
  }
  out << "pool=" << cluster.PoolBytes() << " dram=" << cluster.NodeDramBytes() << '\n';
  for (const auto& [name, counter] : cluster.registry().counters()) {
    out << "ctr " << name << '=' << counter->value() << '\n';
  }
  return out.str();
}

Schedule TestSchedule(uint64_t seed) {
  std::vector<std::string> fns = {"JS", "DH", "IR", "CR", "PR"};
  Rng rng(seed);
  return MakePoissonWorkload(fns, 40.0, SimDuration::Seconds(20), 0.7, rng);
}

ClusterConfig BaseConfig() {
  ClusterConfig config;
  config.nodes = 4;
  // Short TTL keeps restores (the expensive shared-pool path) in the mix.
  config.node_config.keep_alive_ttl = SimDuration::Seconds(2);
  return config;
}

// The sequential reference, built only from the public timeline steps and
// run without a coordinator, so every step runs inline and every submit is
// immediate: every node (and the rack clock) advances to each fault event or
// arrival before the event applies or the arrival is placed, then everything
// drains. Dispatch therefore sees exactly the load state at each arrival.
Status RunLegacyLoop(Cluster& cluster, const Schedule& schedule) {
  const std::vector<FaultInjector::NodeEvent> plan = cluster.PlanFaultEvents();
  size_t next_event = 0;
  const auto apply_events_until = [&](SimTime limit) {
    while (next_event < plan.size() && plan[next_event].time <= limit) {
      cluster.AdvanceClocksTo(plan[next_event].time);
      cluster.ApplyFaultEvent(plan[next_event]);
      ++next_event;
    }
  };
  for (const Invocation& invocation : schedule) {
    apply_events_until(invocation.arrival);
    cluster.AdvanceClocksTo(invocation.arrival);
    TRENV_RETURN_IF_ERROR(cluster.Submit(invocation.arrival, invocation.function));
  }
  apply_events_until(SimTime::Max());
  cluster.DrainAll();
  return Status::Ok();
}

std::string RunLegacy(const ClusterConfig& config, const Schedule& schedule) {
  Cluster cluster(config);
  EXPECT_TRUE(cluster.DeployTable4Functions().ok());
  EXPECT_TRUE(RunLegacyLoop(cluster, schedule).ok());
  return Fingerprint(cluster);
}

std::string RunShardedOn(const ClusterConfig& config, const Schedule& schedule,
                         uint32_t shards, SimDuration lookahead,
                         uint32_t* effective = nullptr, uint64_t* epochs = nullptr) {
  Cluster cluster(config);
  EXPECT_TRUE(cluster.DeployTable4Functions().ok());
  ScheduleStream stream(schedule);
  ShardedRunOptions options;
  options.shards = shards;
  options.lookahead = lookahead;
  EXPECT_TRUE(cluster.RunSharded(stream, options).ok());
  if (effective != nullptr) {
    *effective = cluster.sharded_effective_shards();
  }
  if (epochs != nullptr) {
    *epochs = cluster.sharded_epochs();
  }
  return Fingerprint(cluster);
}

TEST(ShardedClusterTest, PerArrivalModeMatchesLegacyRunAtEveryShardCount) {
  const Schedule schedule = TestSchedule(42);
  const ClusterConfig config = BaseConfig();
  const std::string legacy = RunLegacy(config, schedule);
  ASSERT_NE(legacy.find("fn JS"), std::string::npos);
  for (const uint32_t shards : {1u, 2u, 4u}) {
    EXPECT_EQ(legacy, RunShardedOn(config, schedule, shards, SimDuration::Zero()))
        << "shards=" << shards;
  }
}

TEST(ShardedClusterTest, WindowedModeIsShardCountInvariant) {
  const Schedule schedule = TestSchedule(7);
  const ClusterConfig config = BaseConfig();
  const std::string one = RunShardedOn(config, schedule, 1, SimDuration::Millis(20));
  for (const uint32_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(one, RunShardedOn(config, schedule, shards, SimDuration::Millis(20)))
        << "shards=" << shards;
  }
  // The windowed run still completes the whole trace.
  EXPECT_NE(one.find("accepted=" + std::to_string(schedule.size())), std::string::npos);
}

TEST(ShardedClusterTest, EpochsCountTheTimelineSteps) {
  // A sharded run's epochs are its AdvanceClocksTo steps plus the final
  // DrainAll. With zero lookahead that is one per arrival, one per fault
  // event and one for the drain; a lookahead window batches arrivals into
  // one epoch, on a grid that does not depend on the shard count.
  const Schedule schedule = TestSchedule(17);
  const auto epochs = [&](const ClusterConfig& config, uint32_t shards, SimDuration lookahead) {
    uint64_t count = 0;
    RunShardedOn(config, schedule, shards, lookahead, nullptr, &count);
    return count;
  };

  ClusterConfig faulted = BaseConfig();
  faulted.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Seconds(4),
                                     SimTime::Zero() + SimDuration::Seconds(6), 1.0, 1,
                                     SimDuration::Seconds(3)));
  const size_t plan_size = Cluster(faulted).PlanFaultEvents().size();
  ASSERT_EQ(plan_size, 2u);  // the crash and its restart
  for (const uint32_t shards : {1u, 4u}) {
    EXPECT_EQ(epochs(faulted, shards, SimDuration::Zero()), schedule.size() + plan_size + 1)
        << "shards=" << shards;
  }

  const uint64_t windowed = epochs(BaseConfig(), 1, SimDuration::Millis(20));
  EXPECT_GT(windowed, 1u);
  EXPECT_LT(windowed, schedule.size() + 1);
  for (const uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(epochs(BaseConfig(), shards, SimDuration::Millis(20)), windowed)
        << "shards=" << shards;
  }

  // The same steps called outside a sharded run count no epochs.
  Cluster stepped(BaseConfig());
  ASSERT_TRUE(stepped.DeployTable4Functions().ok());
  ASSERT_TRUE(RunLegacyLoop(stepped, schedule).ok());
  EXPECT_EQ(stepped.sharded_epochs(), 0u);
}

TEST(ShardedClusterTest, ShardCountClampsToNodeCount) {
  const Schedule schedule = TestSchedule(3);
  uint32_t effective = 0;
  RunShardedOn(BaseConfig(), schedule, 64, SimDuration::Zero(), &effective);
  EXPECT_EQ(effective, 4u);
}

TEST(ShardedClusterTest, LeastLoadedAndTemplateLocalityBothDeterministic) {
  const Schedule schedule = TestSchedule(11);
  for (const auto dispatch : {ClusterConfig::Dispatch::kRoundRobin,
                              ClusterConfig::Dispatch::kTemplateLocality}) {
    ClusterConfig config = BaseConfig();
    config.dispatch = dispatch;
    const std::string legacy = RunLegacy(config, schedule);
    EXPECT_EQ(legacy, RunShardedOn(config, schedule, 4, SimDuration::Zero()));
    const std::string windowed = RunShardedOn(config, schedule, 1, SimDuration::Millis(10));
    EXPECT_EQ(windowed, RunShardedOn(config, schedule, 4, SimDuration::Millis(10)));
  }
}

TEST(ShardedClusterTest, PoolManagerRunsShardedDeterministically) {
  ClusterConfig config = BaseConfig();
  config.poolmgr.enabled = true;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  const Schedule schedule = TestSchedule(13);
  const std::string legacy = RunLegacy(config, schedule);
  for (const uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(legacy, RunShardedOn(config, schedule, shards, SimDuration::Zero()))
        << "shards=" << shards;
  }
  EXPECT_EQ(RunShardedOn(config, schedule, 1, SimDuration::Millis(20)),
            RunShardedOn(config, schedule, 4, SimDuration::Millis(20)));
}

TEST(ShardedClusterTest, FaultedRunDegradesToOneShardAndMatchesLegacy) {
  ClusterConfig config = BaseConfig();
  config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Seconds(4),
                                    SimTime::Zero() + SimDuration::Seconds(6), 1.0, 1,
                                    SimDuration::Seconds(3)));
  config.faults.Add(PoolPressureWindow(SimTime::Zero() + SimDuration::Seconds(8),
                                       SimTime::Zero() + SimDuration::Seconds(12), 0.5));
  const Schedule schedule = TestSchedule(21);
  const std::string legacy = RunLegacy(config, schedule);
  // The injector binds per-node state, so cross-thread sharding is off: any
  // requested shard count degrades to 1 and the output must still match the
  // sequential run exactly (crash, failover re-dispatch, and pressure events
  // flow through the same inbox epochs).
  for (const uint32_t shards : {1u, 4u}) {
    uint32_t effective = 0;
    EXPECT_EQ(legacy, RunShardedOn(config, schedule, shards, SimDuration::Zero(), &effective))
        << "shards=" << shards;
    EXPECT_EQ(effective, 1u);
  }
}

TEST(ShardedClusterTest, SharedStateClockFollowsRunShardedAsRun) {
  // The shstate plane and poolmgr schedule on the one rack clock: a reader
  // lease opened at t=0 and the template leases must lapse under RunSharded
  // exactly as under the sequential loop, with both planes' events sharing
  // that clock, and the drain must leave no lease held and no check pending.
  ClusterConfig config = BaseConfig();
  config.poolmgr.enabled = true;
  config.poolmgr.lease_ttl = SimDuration::Seconds(5);
  config.shstate.enabled = true;
  config.shstate.lease_ttl = SimDuration::Seconds(5);
  const Schedule schedule = TestSchedule(5);
  const auto run = [&](bool sharded) {
    Cluster cluster(config);
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    RegionManager& plane = *cluster.shared_state();
    const Result<RegionId> id = plane.CreateRegion("state", 16, /*owner=*/0);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(plane.OpenReader(*id, /*worker=*/1, SimTime::Zero()).ok());
    if (sharded) {
      ScheduleStream stream(schedule);
      ShardedRunOptions options;
      options.shards = 2;
      EXPECT_TRUE(cluster.RunSharded(stream, options).ok());
    } else {
      EXPECT_TRUE(RunLegacyLoop(cluster, schedule).ok());
    }
    const char* loop = sharded ? "RunSharded" : "RunLegacyLoop";
    EXPECT_EQ(plane.leases_expired(), 1u) << loop;
    EXPECT_FALSE(plane.ReaderMapped(*id, 1)) << loop;
    PoolManager& pool = *cluster.pool_manager();
    EXPECT_GT(pool.leases_expired(), 0u) << loop;
    // Drained: every lease has lapsed and no expiry check is left pending.
    for (const Invocation& invocation : schedule) {
      for (uint32_t worker = 0; worker < cluster.node_count(); ++worker) {
        EXPECT_FALSE(pool.HoldsLease(worker, invocation.function)) << loop;
      }
    }
    EXPECT_EQ(pool.clock().pending_count(), 0u) << loop;
    return Fingerprint(cluster);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ShardedClusterTest, StreamingTraceMatchesMaterializedSchedule) {
  // Feeding the generator stream straight into RunSharded must equal
  // materializing the same seed's schedule and running it — the 10M-trace
  // memory win cannot change results.
  const ClusterConfig config = BaseConfig();
  std::vector<std::string> fns = {"JS", "DH", "IR", "CR", "PR"};
  Rng seed_rng(42);
  const Schedule materialized =
      MakePoissonWorkload(fns, 40.0, SimDuration::Seconds(20), 0.7, seed_rng);
  const std::string legacy = RunLegacy(config, materialized);

  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  Rng rng(42);
  PoissonArrivalStream stream(fns, 40.0, SimDuration::Seconds(20), 0.7, &rng);
  ShardedRunOptions options;
  options.shards = 4;
  ASSERT_TRUE(cluster.RunSharded(stream, options).ok());
  EXPECT_EQ(legacy, Fingerprint(cluster));
}

TEST(ShardedClusterTest, CrashRecoveryOrderIsArrivalThenTicket) {
  // Queued invocations sharing an arrival time must come back from Crash()
  // in acceptance-ticket order — the (arrival, ticket) total order that keeps
  // failover re-dispatch deterministic under sharded replay.
  ClusterConfig config;
  config.nodes = 1;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  const SimTime early = SimTime::Zero() + SimDuration::Millis(5);
  const SimTime late = SimTime::Zero() + SimDuration::Millis(10);
  ASSERT_TRUE(cluster.Submit(late, InternFunction("JS")).ok());
  ASSERT_TRUE(cluster.Submit(late, InternFunction("DH")).ok());
  ASSERT_TRUE(cluster.Submit(early, InternFunction("IR")).ok());
  ASSERT_TRUE(cluster.Submit(late, InternFunction("CR")).ok());
  ASSERT_TRUE(cluster.Submit(early, InternFunction("PR")).ok());
  const std::vector<LostInvocation> lost = cluster.node(0).Crash();
  ASSERT_EQ(lost.size(), 5u);
  const std::vector<std::string> want = {"IR", "PR", "JS", "DH", "CR"};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(FunctionName(lost[i].function), want[i]) << "position " << i;
  }
  for (size_t i = 1; i < lost.size(); ++i) {
    const bool ordered = lost[i - 1].arrival < lost[i].arrival ||
                         (lost[i - 1].arrival == lost[i].arrival &&
                          lost[i - 1].ticket < lost[i].ticket);
    EXPECT_TRUE(ordered) << "position " << i;
  }
}

}  // namespace
}  // namespace trenv
