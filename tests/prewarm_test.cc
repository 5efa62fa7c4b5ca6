// Tests for the histogram-based keep-alive / pre-warm policy and its
// integration with the platform.
#include <gtest/gtest.h>

#include "src/platform/prewarm.h"
#include "src/platform/testbed.h"

namespace trenv {
namespace {

TEST(PrewarmPolicyTest, ConservativeWithoutData) {
  PrewarmPolicy policy;
  EXPECT_EQ(policy.KeepAliveFor(InternFunction("fn")), SimDuration::Minutes(10));
  EXPECT_FALSE(policy.PrewarmDelay(InternFunction("fn")).has_value());
}

TEST(PrewarmPolicyTest, LearnsShortKeepAliveForFrequentFunction) {
  PrewarmPolicy policy;
  SimTime t;
  for (int i = 0; i < 20; ++i) {
    policy.RecordArrival(InternFunction("chatty"), t);
    t += SimDuration::Seconds(5);
  }
  // Arrivals every 5 s: keep-alive shrinks to the configured floor.
  EXPECT_LT(policy.KeepAliveFor(InternFunction("chatty")), SimDuration::Minutes(1));
  EXPECT_GE(policy.KeepAliveFor(InternFunction("chatty")), SimDuration::Seconds(30));
  // Gap < keep-alive: no pre-warm needed.
  EXPECT_FALSE(policy.PrewarmDelay(InternFunction("chatty")).has_value());
}

TEST(PrewarmPolicyTest, PredictsPeriodicLongGapFunction) {
  PrewarmPolicy policy;
  SimTime t;
  for (int i = 0; i < 16; ++i) {
    policy.RecordArrival(InternFunction("cron"), t);
    t += SimDuration::Minutes(20);  // periodic, past the max keep-alive
  }
  auto delay = policy.PrewarmDelay(InternFunction("cron"));
  ASSERT_TRUE(delay.has_value());
  // Fires a bit before the next predicted arrival (~20 min).
  EXPECT_GT(delay->seconds(), 15 * 60);
  EXPECT_LT(delay->seconds(), 20 * 60);
}

TEST(PrewarmPolicyTest, RefusesToPredictDispersedArrivals) {
  PrewarmPolicy policy;
  Rng rng(6);
  SimTime t;
  for (int i = 0; i < 30; ++i) {
    policy.RecordArrival(InternFunction("bursty"), t);
    // Wildly dispersed gaps: 1 s to ~80 min.
    t += SimDuration::FromSecondsF(1.0 + rng.NextPareto(2.0, 0.9) * 60.0);
  }
  EXPECT_FALSE(policy.PrewarmDelay(InternFunction("bursty")).has_value());
}

TEST(PrewarmPolicyTest, SlidingWindowForgetsOldBehaviour) {
  PrewarmPolicy policy;
  const size_t phase = PrewarmPolicy::kWindow + 16;
  SimTime t;
  // Old phase: 20-minute gaps, more than the window holds.
  for (size_t i = 0; i < phase; ++i) {
    policy.RecordArrival(InternFunction("fn"), t);
    t += SimDuration::Minutes(20);
  }
  // New phase: 5-second gaps, enough to flush the window.
  for (size_t i = 0; i < phase; ++i) {
    policy.RecordArrival(InternFunction("fn"), t);
    t += SimDuration::Seconds(5);
  }
  EXPECT_EQ(policy.ObservationCount(InternFunction("fn")), PrewarmPolicy::kWindow);
  EXPECT_LT(policy.KeepAliveFor(InternFunction("fn")), SimDuration::Minutes(1));
}

TEST(PrewarmIntegrationTest, PeriodicFunctionGetsPrewarmedStart) {
  PrewarmPolicy policy;
  PlatformConfig config;
  config.prewarm = &policy;
  Testbed bed(SystemKind::kCriu, config);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  // 14 periodic invocations 20 min apart: after the learning phase the
  // platform pre-warms ahead of each arrival, converting cold starts into
  // warm hits despite gaps exceeding any keep-alive.
  Schedule schedule;
  for (int i = 0; i < 14; ++i) {
    schedule.push_back({SimTime::Zero() + SimDuration::Minutes(20 * i), "JS"});
  }
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  const auto& m = bed.platform().metrics().per_function().at("JS");
  EXPECT_GT(m.prewarm_starts, 3u);
  EXPECT_GT(m.warm_starts, 3u);
  // Warm-served arrivals have zero recorded startup.
  EXPECT_DOUBLE_EQ(m.startup_ms.Min(), 0.0);
  // The last arrival still triggers a pre-warm that nothing takes. Its park
  // schedules a TTL sweep like any other, so by the end of the run it has
  // expired and its frames are free.
  EXPECT_EQ(bed.platform().keep_alive().size(), 0u);
  EXPECT_EQ(bed.platform().frames().used_bytes(), 0u);
}

TEST(PrewarmIntegrationTest, PrewarmCostsMemoryThatTrEnvAvoids) {
  // The point of section 10: prediction keeps full instances resident.
  // CRIU+prewarm holds the whole image; TrEnv holds nearly nothing and
  // still starts in milliseconds without any prediction.
  PrewarmPolicy policy;
  PlatformConfig config;
  config.prewarm = &policy;
  Testbed criu(SystemKind::kCriu, config);
  ASSERT_TRUE(criu.DeployTable4Functions().ok());
  Testbed trenv(SystemKind::kTrEnvCxl);
  ASSERT_TRUE(trenv.DeployTable4Functions().ok());
  Schedule schedule;
  for (int i = 0; i < 10; ++i) {
    schedule.push_back({SimTime::Zero() + SimDuration::Minutes(20 * i), "IR"});
  }
  ASSERT_TRUE(criu.platform().Run(schedule).ok());
  ASSERT_TRUE(trenv.platform().Run(schedule).ok());
  EXPECT_GT(criu.platform().metrics().peak_memory_bytes(),
            4 * trenv.platform().metrics().peak_memory_bytes());
}

}  // namespace
}  // namespace trenv
