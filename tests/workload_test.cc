// Tests for the workload generators (W1, W2, industry traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "src/workload/traces.h"

namespace trenv {
namespace {

const std::vector<std::string> kFns = {"A", "B", "C", "D"};

bool IsSorted(const Schedule& s) {
  for (size_t i = 1; i < s.size(); ++i) {
    if (s[i].arrival < s[i - 1].arrival) {
      return false;
    }
  }
  return true;
}

TEST(BurstyWorkloadTest, BurstsSeparatedByMoreThanKeepAlive) {
  Rng rng(1);
  BurstyOptions options;
  options.duration = SimDuration::Minutes(40);
  Schedule schedule = MakeBurstyWorkload(kFns, options, rng);
  ASSERT_FALSE(schedule.empty());
  EXPECT_TRUE(IsSorted(schedule));
  // Per function: gaps between consecutive bursts exceed 10 minutes.
  for (const auto& fn : kFns) {
    std::vector<double> times;
    for (const auto& inv : schedule) {
      if (inv.function == InternFunction(fn)) {
        times.push_back(inv.arrival.seconds());
      }
    }
    ASSERT_GE(times.size(), options.burst_size);
    double burst_start = times.front();
    double prev = times.front();
    for (double t : times) {
      if (t - prev > 60) {  // new burst
        EXPECT_GT(t - burst_start, 600.0) << fn;
        burst_start = t;
      }
      prev = t;
    }
  }
}

TEST(BurstyWorkloadTest, AllFunctionsCovered) {
  Rng rng(2);
  Schedule schedule = MakeBurstyWorkload(kFns, BurstyOptions{}, rng);
  std::map<std::string, int> counts;
  for (const auto& inv : schedule) {
    counts[std::string(FunctionName(inv.function))]++;
  }
  EXPECT_EQ(counts.size(), kFns.size());
}

TEST(DiurnalWorkloadTest, RateVariesAcrossCycle) {
  Rng rng(3);
  DiurnalOptions options;
  options.duration = SimDuration::Minutes(30);
  options.cycles = 3;
  Schedule schedule = MakeDiurnalWorkload(kFns, options, rng);
  ASSERT_GT(schedule.size(), 500u);
  EXPECT_TRUE(IsSorted(schedule));
  // Bucket into 30 one-minute bins; peak bins should be much busier.
  std::vector<int> bins(30, 0);
  for (const auto& inv : schedule) {
    const auto bin = static_cast<size_t>(inv.arrival.seconds() / 60.0);
    if (bin < bins.size()) {
      bins[bin]++;
    }
  }
  const int max_bin = *std::max_element(bins.begin(), bins.end());
  const int min_bin = *std::min_element(bins.begin(), bins.end());
  EXPECT_GT(max_bin, 3 * std::max(min_bin, 1));
}

TEST(PoissonWorkloadTest, RateApproximatelyHonoured) {
  Rng rng(4);
  Schedule schedule =
      MakePoissonWorkload(kFns, /*rate=*/5.0, SimDuration::Minutes(10), 0.0, rng);
  EXPECT_NEAR(static_cast<double>(schedule.size()), 3000.0, 300.0);
  EXPECT_TRUE(IsSorted(schedule));
}

TEST(PoissonWorkloadTest, ZipfSkewConcentratesOnFirstFunction) {
  Rng rng(5);
  Schedule schedule =
      MakePoissonWorkload(kFns, 5.0, SimDuration::Minutes(10), /*skew=*/1.5, rng);
  std::map<std::string, int> counts;
  for (const auto& inv : schedule) {
    counts[std::string(FunctionName(inv.function))]++;
  }
  EXPECT_GT(counts["A"], counts["D"] * 3);
}

TEST(IndustryTraceTest, AzureAndHuaweiShapesDiffer) {
  Rng rng_a(6);
  Rng rng_h(6);
  Schedule azure = MakeAzureLikeWorkload(kFns, rng_a);
  Schedule huawei = MakeHuaweiLikeWorkload(kFns, rng_h);
  ASSERT_FALSE(azure.empty());
  ASSERT_FALSE(huawei.empty());
  EXPECT_TRUE(IsSorted(azure));
  EXPECT_TRUE(IsSorted(huawei));
  // Huawei's duty cycle is higher: more invocations for equal settings.
  EXPECT_GT(huawei.size(), azure.size());
}

TEST(IndustryTraceTest, WithinMinuteBurstsExist) {
  Rng rng(7);
  IndustryTraceOptions options;
  options.burst_probability = 1.0;  // force bursts
  options.idle_minute_fraction = 0.0;
  Schedule schedule = MakeIndustryWorkload(kFns, options, rng);
  ASSERT_FALSE(schedule.empty());
  // All invocations within the first 5 seconds of each minute.
  for (const auto& inv : schedule) {
    const double within = inv.arrival.seconds() - 60.0 * std::floor(inv.arrival.seconds() / 60.0);
    EXPECT_LE(within, 5.001);
  }
}

TEST(IndustryTraceTest, Deterministic) {
  Rng a(8);
  Rng b(8);
  Schedule s1 = MakeAzureLikeWorkload(kFns, a);
  Schedule s2 = MakeAzureLikeWorkload(kFns, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].arrival, s2[i].arrival);
    EXPECT_EQ(s1[i].function, s2[i].function);
  }
}

}  // namespace
}  // namespace trenv
