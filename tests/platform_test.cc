// Integration tests: the full platform loop across all evaluated systems.
#include <gtest/gtest.h>

#include "src/platform/testbed.h"
#include "src/workload/traces.h"

namespace trenv {
namespace {

Schedule SingleInvocation(const std::string& fn) {
  return Schedule{{SimTime::Zero(), fn}};
}

TEST(PlatformTest, SingleInvocationCompletes) {
  Testbed bed(SystemKind::kTrEnvCxl);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  ASSERT_TRUE(bed.platform().Run(SingleInvocation("JS")).ok());
  const auto& metrics = bed.platform().metrics().per_function().at("JS");
  EXPECT_EQ(metrics.invocations, 1u);
  EXPECT_EQ(bed.platform().failed_invocations(), 0u);
  EXPECT_EQ(metrics.e2e_ms.count(), 1u);
  EXPECT_GT(metrics.e2e_ms.Mean(), 0.0);
}

TEST(PlatformTest, WarmHitSkipsStartup) {
  Testbed bed(SystemKind::kCriu);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  Schedule schedule{{SimTime::Zero(), "JS"},
                    {SimTime::Zero() + SimDuration::Seconds(30), "JS"}};
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  const auto& metrics = bed.platform().metrics().per_function().at("JS");
  EXPECT_EQ(metrics.invocations, 2u);
  EXPECT_EQ(metrics.warm_starts, 1u);
  EXPECT_EQ(metrics.cold_starts, 1u);
  // Warm start records 0 startup.
  EXPECT_DOUBLE_EQ(metrics.startup_ms.Min(), 0.0);
}

TEST(PlatformTest, KeepAliveExpiresAfterTtl) {
  PlatformConfig config;
  config.keep_alive_ttl = SimDuration::Seconds(60);
  Testbed bed(SystemKind::kCriu, config);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  Schedule schedule{{SimTime::Zero(), "JS"},
                    {SimTime::Zero() + SimDuration::Seconds(120), "JS"}};
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  const auto& metrics = bed.platform().metrics().per_function().at("JS");
  EXPECT_EQ(metrics.warm_starts, 0u);  // TTL expired before the second call
  EXPECT_EQ(metrics.cold_starts, 2u);
}

TEST(PlatformTest, TrEnvSecondStartIsRepurposedAcrossFunctions) {
  PlatformConfig config;
  config.keep_alive_ttl = SimDuration::Seconds(10);
  Testbed bed(SystemKind::kTrEnvCxl, config);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  // JS runs, instance expires (TTL), then CR arrives: its sandbox should be
  // repurposed from JS's retired sandbox.
  Schedule schedule{{SimTime::Zero(), "JS"},
                    {SimTime::Zero() + SimDuration::Seconds(30), "CR"}};
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  const auto& cr = bed.platform().metrics().per_function().at("CR");
  EXPECT_EQ(cr.repurposed_starts, 1u);
  EXPECT_EQ(cr.cold_starts, 0u);
}

TEST(PlatformTest, MemoryCapEvictsIdleInstances) {
  PlatformConfig config;
  config.soft_mem_cap_bytes = 1 * kGiB;  // tight: CRIU instances are heavy
  Testbed bed(SystemKind::kCriu, config);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  // Several distinct heavyweight functions keep instances alive.
  Schedule schedule;
  const std::vector<std::string> fns = {"IR", "VP", "IFR", "PR", "JS", "CR"};
  for (size_t i = 0; i < fns.size(); ++i) {
    schedule.push_back({SimTime::Zero() + SimDuration::Seconds(static_cast<int64_t>(10 * i)),
                        fns[i]});
  }
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  // The cap bounds resident memory (plus at most one in-flight instance).
  EXPECT_LT(bed.platform().metrics().peak_memory_bytes(), 2 * kGiB);
  EXPECT_EQ(bed.platform().failed_invocations(), 0u);
}

TEST(PlatformTest, UnknownFunctionRejected) {
  Testbed bed(SystemKind::kFaasd);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  EXPECT_EQ(bed.platform().Submit(SimTime::Zero(), InternFunction("nope")).code(),
            StatusCode::kNotFound);
}

TEST(FunctionRegistryTest, DeployRejectsEmptyAndDuplicateNames) {
  // The registry resolves a name once, at Deploy, and is indexed by id
  // afterwards; the deploy-time checks on the name still hold.
  FunctionRegistry registry;
  const FunctionProfile profile = Table4Functions().front();
  ASSERT_TRUE(registry.Deploy(profile).ok());
  EXPECT_EQ(registry.Deploy(profile).code(), StatusCode::kAlreadyExists);
  FunctionProfile unnamed = profile;
  unnamed.name.clear();
  EXPECT_EQ(registry.Deploy(unnamed).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 1u);
  const FunctionId id = InternFunction(profile.name);
  const FunctionProfile* deployed = registry.FindById(id);
  ASSERT_NE(deployed, nullptr);
  EXPECT_EQ(deployed->name, profile.name);
  EXPECT_EQ(deployed->id, id);
  EXPECT_EQ(registry.FindById(kInvalidFunctionId), nullptr);
}

TEST(PlatformTest, InvalidFunctionIdRejected) {
  // The id nothing is interned under, which a default Invocation carries, is
  // rejected like any undeployed function; the error names the placeholder.
  Testbed bed(SystemKind::kFaasd);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  const Status status = bed.platform().Submit(SimTime::Zero(), kInvalidFunctionId);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find(kUnknownFunctionName), std::string::npos) << status.message();
  EXPECT_EQ(bed.platform().Run(Schedule{Invocation{}}).code(), StatusCode::kNotFound);
  EXPECT_EQ(bed.platform().failed_invocations(), 0u);
}

TEST(PlatformTest, AllSystemsSurviveAMixedBurst) {
  for (SystemKind kind :
       {SystemKind::kFaasd, SystemKind::kCriu, SystemKind::kReapPlus, SystemKind::kFaasnapPlus,
        SystemKind::kTrEnvCxl, SystemKind::kTrEnvRdma, SystemKind::kTrEnvTiered}) {
    Testbed bed(kind);
    ASSERT_TRUE(bed.DeployTable4Functions().ok());
    Schedule schedule;
    const std::vector<std::string> fns = {"DH", "JS", "CR", "IR"};
    for (int burst = 0; burst < 2; ++burst) {
      for (int i = 0; i < 8; ++i) {
        schedule.push_back({SimTime::Zero() + SimDuration::Seconds(burst * 60) +
                                SimDuration::Millis(i * 50),
                            fns[static_cast<size_t>(i) % fns.size()]});
      }
    }
    SortSchedule(schedule);
    ASSERT_TRUE(bed.platform().Run(schedule).ok()) << SystemName(kind);
    EXPECT_EQ(bed.platform().failed_invocations(), 0u) << SystemName(kind);
    EXPECT_EQ(bed.platform().metrics().Aggregate().invocations, 16u) << SystemName(kind);
  }
}

TEST(PlatformTest, TrEnvBeatsCriuOnColdHeavyWorkload) {
  // W1-style: every burst arrives after keep-alive expiry.
  auto run = [](SystemKind kind) {
    PlatformConfig config;
    config.keep_alive_ttl = SimDuration::Seconds(30);
    Testbed bed(kind, config);
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    const std::vector<std::string> fns = {"DH", "JS", "CR", "JJS"};
    // Warm-up phase, as in the paper's methodology (section 9.1).
    Schedule warmup;
    for (int i = 0; i < 12; ++i) {
      warmup.push_back({SimTime::Zero() + SimDuration::Millis(i * 20),
                        fns[static_cast<size_t>(i) % fns.size()]});
    }
    EXPECT_TRUE(bed.platform().Run(warmup).ok());
    bed.platform().metrics().Clear();
    Schedule schedule;
    for (int burst = 1; burst <= 3; ++burst) {
      for (int i = 0; i < 12; ++i) {
        schedule.push_back({SimTime::Zero() + SimDuration::Seconds(burst * 60) +
                                SimDuration::Millis(i * 20),
                            fns[static_cast<size_t>(i) % fns.size()]});
      }
    }
    SortSchedule(schedule);
    EXPECT_TRUE(bed.platform().Run(schedule).ok());
    return std::make_pair(bed.platform().metrics().Aggregate().e2e_ms.P99(),
                          bed.platform().metrics().per_function().at("DH").e2e_ms.P99());
  };
  const auto [criu_p99, criu_dh_p99] = run(SystemKind::kCriu);
  const auto [trenv_p99, trenv_dh_p99] = run(SystemKind::kTrEnvCxl);
  // Aggregate P99 is floored by CR's ~500 ms execution; short functions see
  // the multi-x wins the paper reports.
  EXPECT_LT(trenv_p99 * 1.5, criu_p99);
  EXPECT_LT(trenv_dh_p99 * 3.0, criu_dh_p99);
}

TEST(PlatformTest, TrEnvUsesLessMemoryThanCriu) {
  auto peak = [](SystemKind kind) {
    Testbed bed(kind);
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    Schedule schedule;
    // 20 concurrent instances of the big IR function.
    for (int i = 0; i < 20; ++i) {
      schedule.push_back({SimTime::Zero() + SimDuration::Millis(i), "IR"});
    }
    EXPECT_TRUE(bed.platform().Run(schedule).ok());
    return bed.platform().metrics().peak_memory_bytes();
  };
  const uint64_t criu_peak = peak(SystemKind::kCriu);
  const uint64_t trenv_peak = peak(SystemKind::kTrEnvCxl);
  EXPECT_LT(trenv_peak * 2, criu_peak);
}

TEST(PlatformTest, CxlFasterThanRdmaAtP99) {
  auto p99 = [](SystemKind kind) {
    Testbed bed(kind);
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    Schedule schedule;
    for (int i = 0; i < 30; ++i) {
      schedule.push_back({SimTime::Zero() + SimDuration::Millis(i * 10), "IR"});
    }
    EXPECT_TRUE(bed.platform().Run(schedule).ok());
    return bed.platform().metrics().Aggregate().e2e_ms.P99();
  };
  EXPECT_LT(p99(SystemKind::kTrEnvCxl), p99(SystemKind::kTrEnvRdma));
}

TEST(KeepAlivePoolTest, EvictsLruFirstUnderPressure) {
  std::vector<std::string> evicted;
  KeepAlivePool pool(SimDuration::Minutes(10),
                     [&evicted](std::unique_ptr<FunctionInstance> instance) {
                       evicted.push_back(std::string(FunctionName(instance->function_id())));
                     });
  SimTime now;
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("oldest"), nullptr), now);
  now += SimDuration::Seconds(1);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("middle"), nullptr), now);
  now += SimDuration::Seconds(1);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("newest"), nullptr), now);
  ASSERT_EQ(pool.size(), 3u);

  // Memory pressure evicts in LRU order, one victim per call.
  EXPECT_TRUE(pool.EvictLru());
  EXPECT_TRUE(pool.EvictLru());
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], "oldest");
  EXPECT_EQ(evicted[1], "middle");
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.CountFor(InternFunction("newest")), 1u);
  // The survivor is still warm-takeable; the victims are gone.
  EXPECT_EQ(pool.TakeWarm(InternFunction("oldest")), nullptr);
  EXPECT_NE(pool.TakeWarm(InternFunction("newest")), nullptr);
  // Draining an empty pool reports false instead of looping forever.
  EXPECT_FALSE(pool.EvictLru());
}

TEST(KeepAlivePoolTest, ReuseRefreshesLruPosition) {
  std::vector<std::string> evicted;
  KeepAlivePool pool(SimDuration::Minutes(10),
                     [&evicted](std::unique_ptr<FunctionInstance> instance) {
                       evicted.push_back(std::string(FunctionName(instance->function_id())));
                     });
  SimTime now;
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("a"), nullptr), now);
  now += SimDuration::Seconds(1);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("b"), nullptr), now);
  // Take "a" warm and park it again: "b" becomes the LRU victim.
  auto warm = pool.TakeWarm(InternFunction("a"));
  ASSERT_NE(warm, nullptr);
  now += SimDuration::Seconds(1);
  pool.Put(std::move(warm), now);
  EXPECT_TRUE(pool.EvictLru());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
}

TEST(KeepAlivePoolTest, DropDiscardsWithoutEvictCallback) {
  // Crash semantics: Drop() must NOT run the evict callback — the node is
  // gone, there is no orderly teardown to perform.
  int evict_calls = 0;
  KeepAlivePool pool(SimDuration::Minutes(10),
                     [&evict_calls](std::unique_ptr<FunctionInstance>) { ++evict_calls; });
  SimTime now;
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("a"), nullptr), now);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("b"), nullptr), now);
  pool.Drop();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(evict_calls, 0);
  EXPECT_EQ(pool.TakeWarm(InternFunction("a")), nullptr);
  // The pool remains usable after a drop.
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("c"), nullptr), now);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(KeepAlivePoolTest, SlotReuseAfterEvictThenReRegister) {
  // Evicting every instance of a function frees its arena slots; parking the
  // SAME FunctionId again must reuse those slots with fresh links — stale
  // fn-list or LRU links from the previous tenancy would corrupt both lists.
  int evict_calls = 0;
  KeepAlivePool pool(SimDuration::Minutes(10),
                     [&evict_calls](std::unique_ptr<FunctionInstance>) { ++evict_calls; });
  SimTime now;
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("recycled"), nullptr), now);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("recycled"), nullptr), now);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("bystander"), nullptr), now);
  const FunctionId fid = GlobalFunctionInterner().Find("recycled");
  ASSERT_NE(fid, kInvalidFunctionId);
  ASSERT_EQ(pool.CountFor(fid), 2u);

  // Evict both "recycled" instances (LRU order puts them first).
  EXPECT_TRUE(pool.EvictLru());
  EXPECT_TRUE(pool.EvictLru());
  EXPECT_EQ(evict_calls, 2);
  EXPECT_EQ(pool.CountFor(fid), 0u);
  EXPECT_EQ(pool.TakeWarm(fid), nullptr);
  EXPECT_EQ(pool.size(), 1u);

  // Re-register the same FunctionId: the freed slots are reused and the
  // per-function list is rebuilt from scratch.
  now += SimDuration::Seconds(1);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("recycled"), nullptr), now);
  now += SimDuration::Seconds(1);
  pool.Put(std::make_unique<FunctionInstance>(InternFunction("recycled"), nullptr), now);
  EXPECT_EQ(pool.CountFor(fid), 2u);
  EXPECT_EQ(pool.size(), 3u);
  // Warm takes drain the rebuilt list MRU-first, leaving the bystander.
  EXPECT_NE(pool.TakeWarm(fid), nullptr);
  EXPECT_NE(pool.TakeWarm(fid), nullptr);
  EXPECT_EQ(pool.TakeWarm(fid), nullptr);
  EXPECT_EQ(pool.CountFor(fid), 0u);
  EXPECT_EQ(pool.CountFor(InternFunction("bystander")), 1u);
  // The LRU list survived the churn: the bystander is still evictable.
  EXPECT_TRUE(pool.EvictLru());
  EXPECT_FALSE(pool.EvictLru());
}

TEST(PlatformTest, SoftMemCapPressureEvictsIdleInstances) {
  // CRIU keeps warm instances fully resident in local DRAM, so the frame
  // allocator directly reflects keep-alive pool occupancy. Probe mid-run
  // (before the keep-alive TTL expiry event drains the pool at idle).
  // A small base cap keeps the clamped pressure cap (scale floors at
  // kSoftMemCapScaleFloor) below one instance's RSS, so the window still
  // drains the whole pool.
  PlatformConfig small_cap;
  small_cap.soft_mem_cap_bytes = 8 * kMiB;
  Testbed bed(SystemKind::kCriu, small_cap);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  ServerlessPlatform& platform = bed.platform();
  uint64_t warm_bytes = 0;
  uint64_t pressured_bytes = ~0ull;
  uint64_t relieved_warm_starts = 0;
  platform.scheduler().ScheduleAt(SimTime::Zero() + SimDuration::Seconds(10), [&] {
    warm_bytes = platform.frames().used_bytes();
    // Injected pool pressure: squeeze the cap — every idle instance must be
    // evicted and its DRAM returned.
    platform.SetSoftMemCapScale(0.0);
    pressured_bytes = platform.frames().used_bytes();
    // Lifting the pressure restores normal keep-alive behaviour.
    platform.SetSoftMemCapScale(1.0);
  });
  Schedule schedule{{SimTime::Zero(), "JS"},
                    {SimTime::Zero() + SimDuration::Seconds(20), "JS"}};
  ASSERT_TRUE(platform.Run(schedule).ok());
  relieved_warm_starts = platform.metrics().per_function().at("JS").warm_starts;
  EXPECT_GT(warm_bytes, 0u);
  EXPECT_EQ(pressured_bytes, 0u);
  // The instance parked at t=0 was evicted by the pressure window, so the
  // t=20s invocation cold-starts even though it is well within the TTL.
  EXPECT_EQ(relieved_warm_starts, 0u);
}

TEST(PlatformTest, SoftMemCapScaleClampsAtFloorAndExportsGauge) {
  Testbed bed(SystemKind::kCriu);
  ServerlessPlatform& platform = bed.platform();
  obs::Registry& stats = platform.metrics().registry();
  // A zero (or negative) scale is clamped at the documented floor instead of
  // flushing the pool: the effective cap never reaches zero.
  platform.SetSoftMemCapScale(0.0);
  const double floored = stats.GetGauge("platform.soft_mem_cap_bytes")->value();
  EXPECT_NEAR(floored,
              cost::kSoftMemCapScaleFloor * static_cast<double>(cost::kDefaultSoftMemCap),
              1.0);
  EXPECT_GT(floored, 0.0);
  // Squeezes above the floor apply exactly.
  platform.SetSoftMemCapScale(0.5);
  EXPECT_DOUBLE_EQ(stats.GetGauge("platform.soft_mem_cap_bytes")->value(),
                   0.5 * static_cast<double>(cost::kDefaultSoftMemCap));
  // Lifting the pressure restores the configured cap, and the gauge says so.
  platform.SetSoftMemCapScale(1.0);
  EXPECT_DOUBLE_EQ(stats.GetGauge("platform.soft_mem_cap_bytes")->value(),
                   static_cast<double>(cost::kDefaultSoftMemCap));
}

TEST(PlatformTest, CrashHandsBackQueuedAndRunningWorkInArrivalTicketOrder) {
  // A is running when B is accepted with the same arrival, so only the
  // acceptance ticket orders them; C is queued for later. Crash() must hand
  // back all three in (arrival, ticket) order, each with its own callback.
  Testbed bed(SystemKind::kTrEnvCxl);
  ServerlessPlatform& platform = bed.platform();
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  const FunctionId js = InternFunction("JS");
  std::string fired;
  const auto callback = [&fired](char name) {
    return [&fired, name](uint32_t /*node*/, SimTime /*when*/) { fired += name; };
  };
  const SimTime tie = SimTime::Zero() + SimDuration::Millis(5);
  const SimTime later = SimTime::Zero() + SimDuration::Seconds(1);
  ASSERT_TRUE(platform.Submit(tie, js, callback('A')).ok());
  platform.scheduler().RunUntil(tie);
  ASSERT_EQ(platform.concurrent_startups(), 1u);  // A is restoring
  ASSERT_TRUE(platform.Submit(tie, js, callback('B')).ok());
  ASSERT_TRUE(platform.Submit(later, js, callback('C')).ok());

  std::vector<LostInvocation> lost = platform.Crash();
  ASSERT_EQ(lost.size(), 3u);
  const std::string expected = "ABC";
  const SimTime arrivals[] = {tie, tie, later};
  for (size_t i = 0; i < lost.size(); ++i) {
    EXPECT_EQ(lost[i].function, js) << i;
    EXPECT_EQ(lost[i].arrival, arrivals[i]) << i;
    if (i > 0) {
      EXPECT_LT(lost[i - 1].ticket, lost[i].ticket) << i;
    }
    ASSERT_TRUE(lost[i].on_complete) << i;
    fired.clear();
    lost[i].on_complete(0, later);
    EXPECT_EQ(fired, std::string(1, expected[i])) << i;
  }
  EXPECT_EQ(platform.frames().used_bytes(), 0u);
  EXPECT_EQ(platform.concurrent_startups(), 0u);

  // The crashed node still serves fresh work.
  fired.clear();
  ASSERT_TRUE(platform.Submit(later + SimDuration::Seconds(1), js, callback('D')).ok());
  platform.RunToCompletion();
  EXPECT_EQ(fired, "D");
  EXPECT_EQ(platform.failed_invocations(), 0u);
  EXPECT_EQ(platform.metrics().per_function().at("JS").invocations, 1u);
}

TEST(PlatformTest, DeterministicAcrossRuns) {
  auto digest = [] {
    Testbed bed(SystemKind::kTrEnvCxl);
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    Rng rng(7);
    Schedule schedule =
        MakePoissonWorkload({"DH", "JS", "CR"}, 2.0, SimDuration::Seconds(60), 0.5, rng);
    EXPECT_TRUE(bed.platform().Run(schedule).ok());
    const auto agg = bed.platform().metrics().Aggregate();
    return std::make_tuple(agg.invocations, agg.e2e_ms.Mean(), agg.e2e_ms.P99(),
                           bed.platform().metrics().peak_memory_bytes());
  };
  EXPECT_EQ(digest(), digest());
}

}  // namespace
}  // namespace trenv
