// Tests for the bench harness's outward-facing pieces: bench::Record, the one
// writer of perf-trajectory records (BENCH_micro.json), and
// BenchEnv::PositiveValue, the parser of numeric bench flags.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace trenv {
namespace bench {
namespace {

namespace fs = std::filesystem;

BenchEnv MakeEnv(std::vector<std::string> args, std::vector<ExtraFlag> flags) {
  std::string name = "bench";
  std::vector<char*> argv = {name.data()};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return BenchEnv(static_cast<int>(argv.size()), argv.data(), std::move(flags));
}

// A fresh, empty directory per test.
fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("bench_util_test_" + std::to_string(::getpid()) + "_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(RecordTest, EscapesLabelAndEntryNamesAsJson) {
  const fs::path path = FreshDir("escape") / "record.json";
  Record record(MakeEnv({"--bench-json=" + path.string(), "--bench-label=a\"b\\c\td\ne"},
                        Record::Flags()));
  record.Add("x/\"q\"\\\t\n").Field("count", uint64_t{3});
  ASSERT_EQ(record.Append(4), 0);

  const std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find('\n'), text.size() - 1) << "one newline-terminated line";
  EXPECT_EQ(text.find('\t'), std::string::npos) << "no raw control characters";
  EXPECT_EQ(text.rfind("{\"utc\":\"", 0), 0u);
  EXPECT_NE(text.find(R"("label":"a\"b\\c\td\ne","host":{"jobs":4,"cores":)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(R"("benchmarks":{"x/\"q\"\\\t\n":{"count":3}}})"), std::string::npos)
      << text;
}

TEST(RecordTest, FilesEachGuardedNumberUnderItsClock) {
  const fs::path path = FreshDir("clocks") / "record.json";
  Record record(MakeEnv({"--bench-json=" + path.string()}, Record::Flags()));
  record.Add("wall").RealNs(1.5).Field("cpu_ns", 2.25).Field("iterations", int64_t{7});
  record.Add("sim").SimMs(0.125).Field("fetch_pages", uint64_t{42});
  record.Add("gauge_sim").HigherIsBetter(16862, Record::Clock::kSim);
  record.Add("gauge_wall").HigherIsBetter(1.5, Record::Clock::kWall);
  record.Add("nan").Field("ratio", std::nan(""));
  ASSERT_EQ(record.Append(1), 0);

  const std::string text = ReadFile(path);
  EXPECT_NE(text.find(R"("wall":{"real_ns":1.5,"cpu_ns":2.25,"iterations":7})"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(R"("sim":{"sim_ns":125000,"fetch_pages":42})"), std::string::npos)
      << text;
  EXPECT_NE(
      text.find(R"("gauge_sim":{"value":16862,"direction":"higher_is_better","clock":"sim"})"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find(R"("gauge_wall":{"value":1.5,"direction":"higher_is_better","clock":"wall"})"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find(R"("nan":{"ratio":null})"), std::string::npos) << text;
}

TEST(RecordTest, AppendsOneLinePerRecord) {
  const fs::path path = FreshDir("append") / "record.json";
  for (int i = 0; i < 2; ++i) {
    Record record(MakeEnv({"--bench-json=" + path.string()}, Record::Flags()));
    record.Add("a").SimMs(1);
    ASSERT_EQ(record.Append(1), 0);
  }
  const std::string text = ReadFile(path);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2) << text;
}

TEST(RecordTest, WritesNothingWithoutBenchJsonOrEntries) {
  const fs::path dir = FreshDir("none");
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  Record no_file(MakeEnv({"--bench-label=unused"}, Record::Flags()));
  no_file.Add("a").RealNs(1);
  const int no_file_rc = no_file.Append(1);
  const Record no_entries(MakeEnv({"--bench-json=record.json"}, Record::Flags()));
  const int no_entries_rc = no_entries.Append(1);
  fs::current_path(cwd);
  EXPECT_EQ(no_file_rc, 0);
  EXPECT_EQ(no_entries_rc, 0);
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(RecordTest, FailedAppendReturnsNonZero) {
  const fs::path path = FreshDir("fail") / "missing_dir" / "record.json";
  Record record(MakeEnv({"--bench-json=" + path.string()}, Record::Flags()));
  record.Add("a").RealNs(1);
  EXPECT_NE(record.Append(1), 0);
  EXPECT_FALSE(fs::exists(path));
}

TEST(RecordTest, TakeFlagClaimsOnlyTheRecordFlags) {
  const fs::path path = FreshDir("take") / "record.json";
  Record record;
  EXPECT_TRUE(record.TakeFlag("--bench-json=" + path.string()));
  EXPECT_TRUE(record.TakeFlag("--bench-label=x"));
  EXPECT_FALSE(record.TakeFlag("--jobs=2"));
  EXPECT_FALSE(record.TakeFlag("--bench-jsonx"));
  record.Add("a").RealNs(1);
  ASSERT_EQ(record.Append(1), 0);
  EXPECT_NE(ReadFile(path).find(R"("label":"x")"), std::string::npos);
}

TEST(PositiveValueTest, AcceptsPositiveNumbersAndFallsBack) {
  const BenchEnv env = MakeEnv({"--shards=2", "--shards=4", "--rate=2.5", "--n=1e3"},
                               {{"--shards=", ""}, {"--rate=", ""}, {"--n=", ""}});
  EXPECT_EQ(env.PositiveValue<uint32_t>("--shards=", 1), 4u);  // the last one wins
  EXPECT_EQ(env.PositiveValue("--rate=", 8.0), 2.5);
  EXPECT_EQ(env.PositiveValue("--n=", 1.0), 1000.0);
  EXPECT_EQ(env.PositiveValue<uint64_t>("--absent=", 200000), 200000u);
  EXPECT_EQ(env.PositiveValue("--absent=", 15.0), 15.0);
}

TEST(PositiveValueDeathTest, RejectsMalformedIntegers) {
  for (const std::string value : {"four", "4x", "0", "", "-1", " 4", "99999999999", "2.5"}) {
    const BenchEnv env = MakeEnv({"--shards=" + value}, {{"--shards=", ""}});
    EXPECT_EXIT(env.PositiveValue<uint32_t>("--shards=", 1), ::testing::ExitedWithCode(2),
                "invalid --shards value: --shards=.*want an integer >= 1")
        << "'" << value << "'";
  }
}

TEST(PositiveValueDeathTest, RejectsMalformedNumbers) {
  for (const std::string value : {"x", "0", "-2", "", "8/s", "nan", "inf", "1e999"}) {
    const BenchEnv env = MakeEnv({"--minutes=" + value}, {{"--minutes=", ""}});
    EXPECT_EXIT(env.PositiveValue("--minutes=", 30.0), ::testing::ExitedWithCode(2),
                "invalid --minutes value: --minutes=.*want a number > 0")
        << "'" << value << "'";
  }
}

}  // namespace
}  // namespace bench
}  // namespace trenv
