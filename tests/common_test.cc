// Unit tests for src/common: Status/Result, SimTime, Rng, Histogram, units.
#include <gtest/gtest.h>

#include "src/common/histogram.h"
#include "src/common/interner.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/time.h"
#include "src/common/units.h"

namespace trenv {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  TRENV_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("boom")).status().code(), StatusCode::kInternal);
}

TEST(SimTimeTest, Arithmetic) {
  SimTime t0;
  SimTime t1 = t0 + SimDuration::Millis(5);
  EXPECT_EQ((t1 - t0).millis(), 5.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(SimDuration::Seconds(2).nanos(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(SimDuration::Micros(1500).millis(), 1.5);
}

TEST(SimDurationTest, ScalingAndFormatting) {
  SimDuration d = SimDuration::Millis(10) * 2.5;
  EXPECT_DOUBLE_EQ(d.millis(), 25.0);
  EXPECT_EQ(SimDuration::Micros(3).ToString(), "3.0 us");
  EXPECT_EQ(SimDuration::Seconds(3).ToString(), "3.00 s");
  EXPECT_DOUBLE_EQ(SimDuration::Seconds(1) / SimDuration::Millis(100), 10.0);
}

TEST(UnitsTest, PageMath) {
  EXPECT_EQ(BytesToPages(1), 1u);
  EXPECT_EQ(BytesToPages(kPageSize), 1u);
  EXPECT_EQ(BytesToPages(kPageSize + 1), 2u);
  EXPECT_EQ(PageAlignUp(kPageSize + 1), 2 * kPageSize);
  EXPECT_EQ(PageAlignDown(kPageSize + 1), kPageSize);
  EXPECT_TRUE(IsPageAligned(0));
  EXPECT_FALSE(IsPageAligned(100));
  EXPECT_EQ(FormatBytes(74 * kMiB), "74.0 MiB");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    const int64_t n = rng.NextInt(-5, 5);
    EXPECT_GE(n, -5);
    EXPECT_LE(n, 5);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(5);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  const ZipfSampler zipf(100, 1.2);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Draw(rng) < 10) {
      ++low;
    }
  }
  // With s=1.2 the first 10 ranks should absorb well over half the mass.
  EXPECT_GT(low, n / 2);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NextPareto(2.0, 1.5), 2.0);
  }
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Median(), 50.5, 0.01);
  EXPECT_NEAR(h.P99(), 99.01, 0.1);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.Record(5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 5.0);
}

TEST(HistogramTest, CdfMonotone) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    h.Record(rng.NextDouble() * 100);
  }
  auto cdf = h.Cdf(50);
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(HistogramTest, MergePreservesAllSamples) {
  Histogram a;
  Histogram b;
  a.Record(1);
  b.Record(2);
  b.Record(3);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.Max(), 3);
}

TEST(TimeSeriesGaugeTest, PeakAndIntegral) {
  TimeSeriesGauge g;
  g.Set(SimTime(0), 10);
  g.Set(SimTime(SimDuration::Seconds(2).nanos()), 20);
  g.Add(SimTime(SimDuration::Seconds(3).nanos()), -15);
  EXPECT_DOUBLE_EQ(g.current(), 5);
  EXPECT_DOUBLE_EQ(g.peak(), 20);
  // 10*2 + 20*1 + 5*1 = 45 at t=4s.
  EXPECT_DOUBLE_EQ(g.TimeIntegral(SimTime(SimDuration::Seconds(4).nanos())), 45);
}

TEST(TableTest, RendersAllRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", Table::Num(1.5)});
  t.AddRow({"beta", Table::Pct(0.25)});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("25.0%"), std::string::npos);
}

TEST(InternerTest, EmptyStringIsAValidKey) {
  Interner interner;
  // The empty string is a legal (if odd) function name: it gets a dense id
  // like any other and must not collide with real names.
  const FunctionId empty = interner.Intern("");
  const FunctionId named = interner.Intern("f");
  EXPECT_NE(empty, kInvalidFunctionId);
  EXPECT_NE(empty, named);
  EXPECT_EQ(interner.Find(""), empty);
  EXPECT_EQ(interner.NameOf(empty), "");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, UnknownIdsNameAPlaceholder) {
  // NameOf is total: an id the table never issued (the invalid sentinel, or
  // one past the end) names a fixed placeholder instead of reading past the
  // name table. Error messages and trace annotations print names this way.
  Interner interner;
  EXPECT_EQ(interner.NameOf(kInvalidFunctionId), kUnknownFunctionName);
  EXPECT_EQ(interner.NameOf(0), kUnknownFunctionName);
  const FunctionId f = interner.Intern("f");
  EXPECT_EQ(interner.NameOf(f), "f");
  EXPECT_EQ(interner.NameOf(f + 1), kUnknownFunctionName);
  EXPECT_EQ(FunctionName(kInvalidFunctionId), kUnknownFunctionName);
}

TEST(InternerTest, ReinterningReturnsTheSameId) {
  Interner interner;
  const FunctionId first = interner.Intern("resize-image");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(interner.Intern("resize-image"), first);
  }
  EXPECT_EQ(interner.size(), 1u);  // duplicates allocate nothing
  EXPECT_EQ(interner.Find("resize-image"), first);
  EXPECT_EQ(interner.Find("never-interned"), kInvalidFunctionId);
}

TEST(InternerTest, RoundTripsAfterManyInserts) {
  Interner interner;
  // Force the unordered_map through several rehashes: NameOf must keep
  // returning the original strings (the name table points into stable map
  // keys, not into buckets).
  constexpr int kCount = 5000;
  std::vector<FunctionId> ids;
  for (int i = 0; i < kCount; ++i) {
    ids.push_back(interner.Intern("fn-" + std::to_string(i)));
  }
  EXPECT_EQ(interner.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(interner.NameOf(ids[i]), "fn-" + std::to_string(i)) << i;
    EXPECT_EQ(interner.Find("fn-" + std::to_string(i)), ids[i]) << i;
  }
}

}  // namespace
}  // namespace trenv
