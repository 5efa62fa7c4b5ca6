// Tests for the fault-injection & failure-recovery subsystem (src/fault/):
// deterministic replay of injected faults, zero-loss rack failover through
// the shared snapshot pool, retry/backoff latency bounds, and the purity
// guarantee that an empty schedule changes nothing.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/common/cost_model.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/retry_policy.h"
#include "src/platform/cluster.h"
#include "src/platform/testbed.h"
#include "src/workload/traces.h"

namespace trenv {
namespace {

// ---------------------------------------------------------------------------
// Fetch-retry backoff and overhead bound.

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  EXPECT_EQ(BackoffFor(0), SimDuration::Zero());
  EXPECT_EQ(BackoffFor(1), cost::kRetryInitialBackoff);  // 200 us
  EXPECT_EQ(BackoffFor(2), SimDuration::Micros(400));
  EXPECT_EQ(BackoffFor(3), SimDuration::Micros(800));
  EXPECT_EQ(BackoffFor(6), SimDuration::Micros(6400));
  EXPECT_EQ(BackoffFor(7), cost::kRetryMaxBackoff);  // 12.8 ms, capped at 10 ms
  EXPECT_EQ(BackoffFor(40), cost::kRetryMaxBackoff);
}

TEST(RetryPolicyTest, OverheadBoundCoversWorstCaseRetrySequence) {
  // Three retries: 3 timeouts + backoffs of 200/400/800 us = 2.9 ms, well
  // inside the deadline.
  EXPECT_EQ(OverheadBound(), SimDuration::Micros(3 * 500 + 200 + 400 + 800));
  EXPECT_LT(OverheadBound(), cost::kRetryDeadline);
}

// ---------------------------------------------------------------------------
// Injector determinism and schedule semantics.

TEST(FaultInjectorTest, SameSeedYieldsIdenticalInjectionSequence) {
  FaultSchedule schedule;
  schedule.seed = 99;
  schedule.Add(LinkFaultWindow(FaultDomain::kRdmaFlap, SimTime::Zero(),
                               SimTime::Zero() + SimDuration::Seconds(10), 0.4));
  schedule.Add(LinkFaultWindow(FaultDomain::kPageCorruption, SimTime::Zero(),
                               SimTime::Zero() + SimDuration::Seconds(10), 0.1));

  auto draw_sequence = [&schedule] {
    EventScheduler clock;
    obs::Registry stats;
    FaultInjector injector(schedule, stats);
    injector.BindClock(&clock);
    std::vector<std::tuple<bool, bool, double>> outcomes;
    for (int i = 0; i < 200; ++i) {
      const auto fault = injector.OnFetchAttempt(PoolKind::kRdma, 1);
      outcomes.emplace_back(fault.fail, fault.corrupt, fault.latency_multiplier);
    }
    return std::make_pair(outcomes, injector.injection_log());
  };
  const auto [outcomes_a, log_a] = draw_sequence();
  const auto [outcomes_b, log_b] = draw_sequence();
  EXPECT_EQ(outcomes_a, outcomes_b);
  ASSERT_EQ(log_a.size(), log_b.size());
  EXPECT_GT(log_a.size(), 0u);
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i], log_b[i]) << "injection " << i << " diverged";
  }
}

TEST(FaultInjectorTest, DrawsNothingOutsideWindowsOrForOtherPools) {
  FaultSchedule schedule;
  schedule.Add(LinkFaultWindow(FaultDomain::kRdmaFlap,
                               SimTime::Zero() + SimDuration::Seconds(5),
                               SimTime::Zero() + SimDuration::Seconds(6), 1.0));
  EventScheduler clock;
  obs::Registry stats;
  FaultInjector injector(schedule, stats);
  injector.BindClock(&clock);
  // Before the window: p=1.0 flap must NOT fire (clock is at 0).
  for (int i = 0; i < 50; ++i) {
    const auto fault = injector.OnFetchAttempt(PoolKind::kRdma, 1);
    EXPECT_FALSE(fault.fail);
    EXPECT_FALSE(fault.corrupt);
    EXPECT_EQ(fault.latency_multiplier, 1.0);
  }
  // Inside the window but wrong pool: CXL fetches don't flap.
  clock.RunUntil(SimTime::Zero() + SimDuration::Seconds(5) + SimDuration::Millis(1));
  EXPECT_FALSE(injector.OnFetchAttempt(PoolKind::kCxl, 1).fail);
  EXPECT_TRUE(injector.OnFetchAttempt(PoolKind::kRdma, 1).fail);
  EXPECT_EQ(injector.injected(), 1u);
}

TEST(FaultInjectorTest, NodePlanIsDeterministicAndSorted) {
  FaultSchedule schedule;
  schedule.seed = 1234;
  schedule.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Seconds(10),
                               SimTime::Zero() + SimDuration::Seconds(20), 1.0, kAnyTarget,
                               SimDuration::Seconds(5)));
  schedule.Add(PoolPressureWindow(SimTime::Zero() + SimDuration::Seconds(2),
                                  SimTime::Zero() + SimDuration::Seconds(30), 0.5));

  obs::Registry stats_a;
  FaultInjector a(schedule, stats_a);
  obs::Registry stats_b;
  FaultInjector b(schedule, stats_b);
  // Perturb injector a's fetch RNG first: the node plan must not shift.
  EventScheduler clock;
  a.BindClock(&clock);
  (void)a.OnFetchAttempt(PoolKind::kRdma, 1);
  const auto plan_a = a.PlanNodeEvents(4);
  const auto plan_b = b.PlanNodeEvents(4);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  ASSERT_EQ(plan_a.size(), 4u);  // pressure start/end + crash + restart
  for (size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].time, plan_b[i].time);
    EXPECT_EQ(plan_a[i].node, plan_b[i].node);
    EXPECT_EQ(static_cast<int>(plan_a[i].kind), static_cast<int>(plan_b[i].kind));
    if (i > 0) {
      EXPECT_LE(plan_a[i - 1].time, plan_a[i].time);
    }
  }
  // The crash instant lands inside its window; the restart 5 s later.
  const auto& crash = plan_a[1];
  EXPECT_EQ(static_cast<int>(crash.kind),
            static_cast<int>(FaultInjector::NodeEvent::Kind::kCrash));
  EXPECT_GE(crash.time, SimTime::Zero() + SimDuration::Seconds(10));
  EXPECT_LT(crash.time, SimTime::Zero() + SimDuration::Seconds(20));
  EXPECT_LT(crash.node, 4u);
}

// ---------------------------------------------------------------------------
// Fetch-path retry behaviour against real backends.

TEST(FaultBackendTest, RetryBoundsFetchLatencyUnderRdmaFlaps) {
  // Acceptance (3): a 30% flap schedule may slow fetches but every fetch's
  // total latency stays within the policy's overhead bound plus one clean
  // transfer (generously capped — RDMA single-page transfers are microseconds
  // even at the jitter tail).
  FaultSchedule schedule;
  schedule.seed = 7;
  schedule.Add(LinkFaultWindow(FaultDomain::kRdmaFlap, SimTime::Zero(),
                               SimTime::Max(), 0.3));
  obs::Registry stats;
  FaultInjector injector(schedule, stats);
  EventScheduler clock;
  injector.BindClock(&clock);
  RdmaPool rdma(kGiB);
  rdma.BindFaultInjector(&injector);
  const SimDuration bound = OverheadBound() + SimDuration::Millis(1);
  for (int i = 0; i < 2000; ++i) {
    const SimDuration latency = rdma.FetchLatency(1);
    EXPECT_GT(latency, SimDuration::Zero());
    EXPECT_LE(latency, bound) << "fetch " << i << " blew the retry bound";
  }
  EXPECT_GT(injector.retries(), 0u);
  EXPECT_GT(injector.injected(), 0u);
}

TEST(FaultBackendTest, CorruptionWastesTransfersThenFailsOpen) {
  FaultSchedule schedule;
  schedule.Add(LinkFaultWindow(FaultDomain::kPageCorruption, SimTime::Zero(),
                               SimTime::Max(), 1.0));
  obs::Registry stats;
  FaultInjector injector(schedule, stats);
  EventScheduler clock;
  injector.BindClock(&clock);
  NasPool nas(kGiB);
  nas.BindFaultInjector(&injector);
  const SimDuration faulty = nas.FetchLatency(4);
  // Every attempt corrupts: max_attempts transfers are wasted, then the
  // fail-open transfer delivers — at least (attempts+1)x the clean latency.
  NasPool clean(kGiB);
  const SimDuration base = clean.FetchLatency(4);
  EXPECT_GE(faulty, base * static_cast<double>(cost::kRetryMaxAttempts));
  EXPECT_EQ(injector.corrupt_fetches(), cost::kRetryMaxAttempts);
  EXPECT_EQ(injector.exhausted_fetches(), 1u);
}

TEST(FaultBackendTest, EmptyScheduleIsByteIdenticalToNoInjector) {
  // Acceptance (4): binding an idle injector must not perturb a single bit
  // of simulation output — no RNG draws, no latency scaling.
  auto digest = [](bool bind_idle_injector) {
    FaultSchedule empty;
    obs::Registry stats;
    FaultInjector injector(empty, stats);
    Testbed bed(SystemKind::kTrEnvRdma);
    if (bind_idle_injector) {
      bed.BindFaultInjector(&injector);
    }
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    Rng rng(7);
    Schedule schedule =
        MakePoissonWorkload({"DH", "JS", "IR"}, 4.0, SimDuration::Minutes(2), 0.3, rng);
    EXPECT_TRUE(bed.platform().Run(schedule).ok());
    const FunctionMetrics agg = bed.platform().metrics().Aggregate();
    return std::make_tuple(agg.invocations, agg.e2e_ms.Mean(), agg.e2e_ms.P99(),
                           agg.exec_ms.Mean(),
                           bed.platform().metrics().peak_memory_bytes());
  };
  EXPECT_EQ(digest(false), digest(true));
}

// ---------------------------------------------------------------------------
// Rack-level failover.

Schedule BurstSchedule(int n, SimDuration spacing) {
  Schedule schedule;
  const char* fns[] = {"JS", "DH", "IR"};
  for (int i = 0; i < n; ++i) {
    schedule.push_back({SimTime::Zero() + spacing * static_cast<double>(i),
                        fns[i % 3]});
  }
  return schedule;
}

TEST(ClusterFailoverTest, NodeCrashMidBurstLosesNothing) {
  // Acceptance (2): a node dies mid-burst; every accepted invocation still
  // completes, re-dispatched to survivors restoring from the shared pool.
  ClusterConfig config;
  config.nodes = 4;
  config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
  config.faults.seed = 42;
  config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Millis(500),
                                    SimTime::Zero() + SimDuration::Millis(600), 1.0,
                                    /*node=*/1, /*restart_after=*/SimDuration::Zero()));
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  ASSERT_TRUE(cluster.Run(BurstSchedule(60, SimDuration::Millis(25))).ok());

  ASSERT_NE(cluster.fault_injector(), nullptr);
  EXPECT_EQ(cluster.fault_injector()->crashes(), 1u);
  EXPECT_FALSE(cluster.node_alive(1));
  EXPECT_GT(cluster.fault_injector()->failovers(), 0u);
  // Zero loss: completions match acceptances exactly.
  EXPECT_EQ(cluster.accepted_invocations(), 60u);
  EXPECT_EQ(cluster.TotalInvocations(), cluster.accepted_invocations());
  EXPECT_FALSE(cluster.fault_injector()->recovery_ms().empty());
}

TEST(ClusterFailoverTest, RestartedNodeRejoinsDispatch) {
  ClusterConfig config;
  config.nodes = 2;
  config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
  config.faults.seed = 5;
  config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Millis(100),
                                    SimTime::Zero() + SimDuration::Millis(150), 1.0,
                                    /*node=*/0, /*restart_after=*/SimDuration::Seconds(1)));
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  // Burst spans well past the restart instant (~1.1s-1.2s).
  ASSERT_TRUE(cluster.Run(BurstSchedule(40, SimDuration::Millis(100))).ok());
  EXPECT_EQ(cluster.fault_injector()->crashes(), 1u);
  EXPECT_EQ(cluster.fault_injector()->restarts(), 1u);
  EXPECT_TRUE(cluster.node_alive(0));
  EXPECT_EQ(cluster.TotalInvocations(), cluster.accepted_invocations());
  // Node 0 served invocations again after rejoining.
  EXPECT_GT(cluster.node(0).metrics().Aggregate().invocations, 0u);
}

TEST(ClusterFailoverTest, WholeRackOutageDefersUntilRestart) {
  ClusterConfig config;
  config.nodes = 1;
  config.faults.seed = 9;
  config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Millis(100),
                                    SimTime::Zero() + SimDuration::Millis(110), 1.0,
                                    /*node=*/0, /*restart_after=*/SimDuration::Seconds(2)));
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  // Arrivals land while the only node is down: they defer, then flush.
  ASSERT_TRUE(cluster.Run(BurstSchedule(30, SimDuration::Millis(100))).ok());
  EXPECT_GT(cluster.fault_injector()->deferred(), 0u);
  EXPECT_EQ(cluster.fault_injector()->restarts(), 1u);
  EXPECT_EQ(cluster.TotalInvocations(), cluster.accepted_invocations());
  EXPECT_EQ(cluster.accepted_invocations(), 30u);
}

TEST(ClusterFailoverTest, AllNodesDeadWithoutInjectorNamesTheFailure) {
  // Without a fault campaign there is no deferred queue: submitting to a
  // rack with no live node must fail loudly, not silently park work.
  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  const Status ok = cluster.Submit(SimTime::Zero(), InternFunction("JS"));
  EXPECT_TRUE(ok.ok());
  // An unknown function is rejected by the chosen node, and the error names
  // the node (satellite: actionable dispatch errors).
  const Status bad = cluster.Submit(SimTime::Zero(), InternFunction("no-such-function"));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("node "), std::string::npos) << bad.message();
  EXPECT_NE(bad.message().find("no-such-function"), std::string::npos) << bad.message();
}

TEST(ClusterFailoverTest, PoolPressureForcesEvictionAndCostsWarmth) {
  auto warm_starts = [](bool pressure) {
    ClusterConfig config;
    config.nodes = 2;
    // Small per-node cap: even floored at kSoftMemCapScaleFloor the squeezed
    // cap sits below one instance's RSS, so the window evicts everything.
    config.node_config.soft_mem_cap_bytes = 8 * kMiB;
    config.faults.seed = 11;
    if (pressure) {
      // Crush the soft cap to near zero for the middle of the run: idle
      // instances get evicted, so later arrivals can't hit warm.
      config.faults.Add(PoolPressureWindow(SimTime::Zero() + SimDuration::Seconds(1),
                                           SimTime::Zero() + SimDuration::Seconds(4),
                                           /*cap_scale=*/0.0));
    } else {
      // Keep an injector active (schedules are compared like-for-like) but
      // point the pressure at a node index that doesn't exist.
      config.faults.Add(PoolPressureWindow(SimTime::Zero() + SimDuration::Seconds(1),
                                           SimTime::Zero() + SimDuration::Seconds(4),
                                           /*cap_scale=*/0.0, /*node=*/77));
    }
    Cluster cluster(config);
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    Schedule schedule;
    for (int i = 0; i < 40; ++i) {
      schedule.push_back({SimTime::Zero() + SimDuration::Millis(i * 150), "JS"});
    }
    EXPECT_TRUE(cluster.Run(schedule).ok());
    EXPECT_EQ(cluster.TotalInvocations(), 40u);
    return cluster.AggregateMetrics().warm_starts;
  };
  EXPECT_LT(warm_starts(true), warm_starts(false));
}

TEST(ClusterFailoverTest, ChaosRunIsDeterministic) {
  // Acceptance (1) at rack scale: the same seed + schedule reproduces the
  // same injection log, the same fault counters, and the same latencies.
  auto run = [] {
    ClusterConfig config;
    config.nodes = 3;
    config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
    config.faults.seed = 77;
    config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Seconds(1),
                                      SimTime::Zero() + SimDuration::Seconds(2), 1.0,
                                      kAnyTarget, SimDuration::Seconds(1)));
    config.faults.Add(LinkFaultWindow(FaultDomain::kCxlPortDegrade,
                                      SimTime::Zero() + SimDuration::Seconds(2),
                                      SimTime::Zero() + SimDuration::Seconds(3), 1.0,
                                      /*severity=*/3.0));
    Cluster cluster(config);
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    Rng rng(13);
    Schedule schedule =
        MakePoissonWorkload({"JS", "DH", "IR"}, 6.0, SimDuration::Seconds(5), 0.4, rng);
    EXPECT_TRUE(cluster.Run(schedule).ok());
    const FunctionMetrics agg = cluster.AggregateMetrics();
    return std::make_tuple(cluster.fault_injector()->injection_log(),
                           cluster.fault_injector()->failovers(),
                           cluster.accepted_invocations(), agg.invocations,
                           agg.e2e_ms.Mean(), agg.e2e_ms.P99());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a).size(), std::get<0>(b).size());
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::get<2>(a), std::get<3>(a)) << "chaos run lost invocations";
}

}  // namespace
}  // namespace trenv
