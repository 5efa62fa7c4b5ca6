// Tests for the CSV trace loader / exporter.
#include <gtest/gtest.h>

#include <sstream>

#include "src/workload/trace_csv.h"

namespace trenv {
namespace {

TEST(TraceCsvTest, ParsesBasicTrace) {
  std::istringstream in(
      "minute,function,count\n"
      "0,JS,10\n"
      "0,IR,2\n"
      "1,JS,5\n"
      "# comment line\n"
      "\n"
      "3,CR,1\n");
  Rng rng(1);
  auto schedule = LoadTraceCsv(in, TraceCsvOptions{}, rng);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->size(), 18u);
  // Sorted and within the right minutes.
  for (size_t i = 1; i < schedule->size(); ++i) {
    EXPECT_LE((*schedule)[i - 1].arrival, (*schedule)[i].arrival);
  }
  int js_minute0 = 0;
  for (const auto& inv : *schedule) {
    if (inv.function == InternFunction("JS") && inv.arrival.seconds() < 60.0) {
      ++js_minute0;
    }
  }
  EXPECT_EQ(js_minute0, 10);
  EXPECT_EQ(schedule->back().function, InternFunction("CR"));
  EXPECT_GE(schedule->back().arrival.seconds(), 180.0);
  EXPECT_LT(schedule->back().arrival.seconds(), 240.0);
}

TEST(TraceCsvTest, RejectsMalformedLines) {
  {
    std::istringstream in("0,JS\n");
    Rng rng(1);
    EXPECT_EQ(LoadTraceCsv(in, TraceCsvOptions{}, rng).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::istringstream in("abc,JS,4\n");
    Rng rng(1);
    EXPECT_EQ(LoadTraceCsv(in, TraceCsvOptions{}, rng).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::istringstream in("1, ,4\n");
    Rng rng(1);
    EXPECT_EQ(LoadTraceCsv(in, TraceCsvOptions{}, rng).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TraceCsvTest, MissingFileReported) {
  Rng rng(1);
  EXPECT_EQ(LoadTraceCsvFile("/no/such/file.csv", TraceCsvOptions{}, rng).status().code(),
            StatusCode::kNotFound);
}

TEST(TraceCsvTest, BurstyMinutesFrontLoaded) {
  std::istringstream in("0,JS,200\n");
  TraceCsvOptions options;
  options.burst_probability = 1.0;
  options.burst_window_s = 5.0;
  Rng rng(3);
  auto schedule = LoadTraceCsv(in, options, rng);
  ASSERT_TRUE(schedule.ok());
  for (const auto& inv : *schedule) {
    EXPECT_LE(inv.arrival.seconds(), 5.0);
  }
}

TEST(TraceCsvTest, WriteOrdersRowsByNameNotId) {
  // Fresh names interned in reverse alphabetical order get ascending ids, so
  // an export in id order would list them backwards. Rows must come out by
  // minute, then by name.
  const FunctionId zulu = InternFunction("csv-order-zulu");
  const FunctionId mike = InternFunction("csv-order-mike");
  const FunctionId alpha = InternFunction("csv-order-alpha");
  ASSERT_LT(zulu, mike);
  ASSERT_LT(mike, alpha);
  const auto at = [](double seconds) {
    return SimTime::Zero() + SimDuration::FromSecondsF(seconds);
  };
  const Schedule schedule = {{at(1), zulu},  {at(2), alpha}, {at(3), zulu}, {at(4), mike},
                             {at(61), mike}, {at(62), zulu}, {at(63), alpha}};
  std::ostringstream csv;
  WriteTraceCsv(schedule, csv);
  EXPECT_EQ(csv.str(),
            "minute,function,count\n"
            "0,csv-order-alpha,1\n"
            "0,csv-order-mike,1\n"
            "0,csv-order-zulu,2\n"
            "1,csv-order-alpha,1\n"
            "1,csv-order-mike,1\n"
            "1,csv-order-zulu,1\n");
}

TEST(TraceCsvTest, RoundTripPreservesPerMinuteCounts) {
  Rng rng(9);
  Schedule original =
      MakePoissonWorkload({"A", "B", "C"}, 2.0, SimDuration::Minutes(5), 0.4, rng);
  std::ostringstream csv;
  WriteTraceCsv(original, csv);
  std::istringstream in(csv.str());
  Rng rng2(10);
  auto reloaded = LoadTraceCsv(in, TraceCsvOptions{}, rng2);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->size(), original.size());
  // Per-(minute, function) counts are identical even though exact offsets
  // within each minute are re-randomized.
  auto counts = [](const Schedule& schedule) {
    std::map<std::pair<uint64_t, FunctionId>, int> out;
    for (const auto& inv : schedule) {
      out[{static_cast<uint64_t>(inv.arrival.seconds() / 60.0), inv.function}]++;
    }
    return out;
  };
  EXPECT_EQ(counts(original), counts(*reloaded));
}

}  // namespace
}  // namespace trenv
