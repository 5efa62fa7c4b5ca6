// Streaming/materialized equivalence: collecting an ArrivalStream must be
// byte-identical to the generate-then-SortSchedule path using the same RNG
// draws, across seeds. The reference generators below are the historical
// materialized loops, kept verbatim so the streams are pinned against the
// original semantics rather than against themselves.
#include "src/workload/arrival_stream.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/workload/arrival.h"

namespace trenv {
namespace {

const std::vector<uint64_t> kSeeds = {1, 7, 42, 1234, 987654321};
const std::vector<std::string> kFns = {"JS", "DH", "IR", "CR", "PR"};

// The historical Rng::NextZipf, verbatim: two O(n) walks per draw. The
// streams now draw through a ZipfSampler built once; this is its reference.
uint64_t ReferenceZipf(Rng& rng, uint64_t n, double s) {
  if (s <= 0) {
    return rng.NextBounded(n);
  }
  double norm = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i), s);
  }
  double target = rng.NextDouble() * norm;
  double acc = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    if (acc >= target) {
      return i - 1;
    }
  }
  return n - 1;
}

// The pre-stream MakePoissonWorkload loop, verbatim.
Schedule ReferencePoisson(const std::vector<std::string>& functions, double rate_per_sec,
                          SimDuration duration, double function_skew, Rng& rng) {
  Schedule schedule;
  if (functions.empty() || rate_per_sec <= 0) {
    return schedule;
  }
  double t = rng.NextExponential(1.0 / rate_per_sec);
  while (t < duration.seconds()) {
    const uint64_t pick = ReferenceZipf(rng, functions.size(), function_skew);
    schedule.push_back({SimTime::Zero() + SimDuration::FromSecondsF(t), functions[pick]});
    t += rng.NextExponential(1.0 / rate_per_sec);
  }
  return schedule;
}

// The pre-stream MakeDiurnalWorkload loop, verbatim.
Schedule ReferenceDiurnal(const std::vector<std::string>& functions,
                          const DiurnalOptions& options, Rng& rng) {
  Schedule schedule;
  if (functions.empty()) {
    return schedule;
  }
  const double duration_s = options.duration.seconds();
  double t = 0;
  while (t < duration_s) {
    const double phase = 2.0 * std::numbers::pi * options.cycles * (t / duration_s);
    const double mix = 0.5 * (1.0 - std::cos(phase));
    const double rate = options.trough_rate_per_sec +
                        (options.peak_rate_per_sec - options.trough_rate_per_sec) * mix;
    t += rng.NextExponential(1.0 / std::max(rate, 1e-3));
    if (t >= duration_s) {
      break;
    }
    const uint64_t rotation = static_cast<uint64_t>(
        options.cycles * t / duration_s * static_cast<double>(functions.size()));
    const uint64_t pick =
        (ReferenceZipf(rng, functions.size(), options.function_skew) + rotation) %
        functions.size();
    schedule.push_back({SimTime::Zero() + SimDuration::FromSecondsF(t), functions[pick]});
    if (rng.NextBool(options.clump_probability)) {
      for (uint32_t k = 0; k < options.clump_size; ++k) {
        schedule.push_back({SimTime::Zero() + SimDuration::FromSecondsF(
                                t + rng.NextUniform(0.0, 1.0)),
                            functions[pick]});
      }
    }
  }
  SortSchedule(schedule);
  return schedule;
}

// The bursty generate-then-sort loop with the stream's RNG derivation: each
// function's timeline comes from a child Rng forked from the parent in
// function order (the shared-Rng original cannot be streamed — function k's
// draws depended on every draw of functions 0..k-1).
Schedule ReferenceBursty(const std::vector<std::string>& functions,
                         const BurstyOptions& options, Rng& rng) {
  Schedule schedule;
  for (const auto& function : functions) {
    Rng child = rng.Fork();
    SimTime burst_start = SimTime::Zero() + SimDuration::FromSecondsF(child.NextUniform(0, 30));
    while (burst_start < SimTime::Zero() + options.duration) {
      for (uint32_t i = 0; i < options.burst_size; ++i) {
        const SimDuration offset =
            SimDuration::FromSecondsF(child.NextUniform(0, options.burst_spread.seconds()));
        schedule.push_back({burst_start + offset, function});
      }
      const double gap_s = options.inter_burst.seconds() * child.NextUniform(1.0, 1.2);
      burst_start += SimDuration::FromSecondsF(gap_s);
    }
  }
  SortSchedule(schedule);
  return schedule;
}

void ExpectIdentical(const Schedule& expected, const Schedule& actual,
                     const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].arrival.nanos(), actual[i].arrival.nanos())
        << what << " diverges at index " << i;
    ASSERT_EQ(expected[i].function, actual[i].function)
        << what << " diverges at index " << i;
  }
}

void ExpectSorted(const Schedule& schedule) {
  for (size_t i = 1; i < schedule.size(); ++i) {
    ASSERT_LE(schedule[i - 1].arrival.nanos(), schedule[i].arrival.nanos());
  }
}

TEST(ZipfSamplerTest, MatchesReferenceWalkDrawForDraw) {
  // Same picks and the same Rng state afterwards, over catalog sizes up to
  // the 8192-name catalogs and skews from uniform to steep.
  for (const uint64_t n : {1u, 2u, 5u, 100u, 8192u}) {
    for (const double s : {0.0, 0.3, 0.7, 1.2, 2.5}) {
      const ZipfSampler zipf(n, s);
      Rng ref_rng(n * 31 + static_cast<uint64_t>(s * 10));
      Rng rng(n * 31 + static_cast<uint64_t>(s * 10));
      for (int draw = 0; draw < 400; ++draw) {
        ASSERT_EQ(ReferenceZipf(ref_rng, n, s), zipf.Draw(rng))
            << "n=" << n << " s=" << s << " draw " << draw;
      }
      EXPECT_EQ(ref_rng.NextU64(), rng.NextU64()) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ArrivalStreamTest, PoissonMatchesReferenceAcrossSeeds) {
  for (const uint64_t seed : kSeeds) {
    Rng ref_rng(seed);
    const Schedule expected =
        ReferencePoisson(kFns, 6.0, SimDuration::Minutes(5), 0.8, ref_rng);
    Rng rng(seed);
    PoissonArrivalStream stream(kFns, 6.0, SimDuration::Minutes(5), 0.8, &rng);
    const Schedule actual = CollectAll(stream);
    ExpectIdentical(expected, actual, "poisson seed " + std::to_string(seed));
    ASSERT_FALSE(actual.empty());
    ExpectSorted(actual);
    // A fully drained stream leaves the caller's Rng exactly where the
    // materialized loop left it.
    EXPECT_EQ(ref_rng.NextU64(), rng.NextU64());
  }
}

TEST(ArrivalStreamTest, DiurnalMatchesReferenceAcrossSeeds) {
  DiurnalOptions options;
  options.duration = SimDuration::Minutes(10);
  for (const uint64_t seed : kSeeds) {
    Rng ref_rng(seed);
    const Schedule expected = ReferenceDiurnal(kFns, options, ref_rng);
    Rng rng(seed);
    DiurnalArrivalStream stream(kFns, options, &rng);
    const Schedule actual = CollectAll(stream);
    ExpectIdentical(expected, actual, "diurnal seed " + std::to_string(seed));
    ASSERT_FALSE(actual.empty());
    ExpectSorted(actual);
    EXPECT_EQ(ref_rng.NextU64(), rng.NextU64());
  }
}

TEST(ArrivalStreamTest, BurstyMatchesReferenceAcrossSeeds) {
  for (const uint64_t seed : kSeeds) {
    Rng ref_rng(seed);
    const Schedule expected = ReferenceBursty(kFns, BurstyOptions{}, ref_rng);
    Rng rng(seed);
    BurstyArrivalStream stream(kFns, BurstyOptions{}, &rng);
    const Schedule actual = CollectAll(stream);
    ExpectIdentical(expected, actual, "bursty seed " + std::to_string(seed));
    ASSERT_FALSE(actual.empty());
    ExpectSorted(actual);
    EXPECT_EQ(ref_rng.NextU64(), rng.NextU64());
  }
}

TEST(ArrivalStreamTest, BurstyHandlesOverlappingBursts) {
  // Gaps shorter than the spread force bursts to overlap, so a function's
  // reorder buffer must hold more than one burst at a time — the stress case
  // for the per-function watermark.
  BurstyOptions options;
  options.duration = SimDuration::Minutes(5);
  options.inter_burst = SimDuration::Seconds(5);
  options.burst_spread = SimDuration::Seconds(30);
  options.burst_size = 7;
  for (const uint64_t seed : kSeeds) {
    Rng ref_rng(seed);
    const Schedule expected = ReferenceBursty(kFns, options, ref_rng);
    Rng rng(seed);
    BurstyArrivalStream stream(kFns, options, &rng);
    const Schedule actual = CollectAll(stream);
    ExpectIdentical(expected, actual, "overlapping bursty seed " + std::to_string(seed));
    ExpectSorted(actual);
  }
}

TEST(ArrivalStreamTest, MaterializedWrappersCollectTheStreams) {
  // MakeXxxWorkload must be exactly CollectAll(stream) — same draws, same
  // output — so every Schedule consumer inherits the streaming semantics.
  Rng a(42);
  Rng b(42);
  PoissonArrivalStream poisson(kFns, 4.0, SimDuration::Minutes(3), 0.5, &b);
  ExpectIdentical(MakePoissonWorkload(kFns, 4.0, SimDuration::Minutes(3), 0.5, a),
                  CollectAll(poisson), "poisson wrapper");

  Rng c(42);
  Rng d(42);
  DiurnalArrivalStream diurnal(kFns, DiurnalOptions{}, &d);
  ExpectIdentical(MakeDiurnalWorkload(kFns, DiurnalOptions{}, c), CollectAll(diurnal),
                  "diurnal wrapper");

  Rng e(42);
  Rng f(42);
  BurstyArrivalStream bursty(kFns, BurstyOptions{}, &f);
  ExpectIdentical(MakeBurstyWorkload(kFns, BurstyOptions{}, e), CollectAll(bursty),
                  "bursty wrapper");
}

TEST(ArrivalStreamTest, ScheduleStreamRoundTrips) {
  Rng rng(7);
  const Schedule schedule = MakePoissonWorkload(kFns, 2.0, SimDuration::Minutes(2), 0.4, rng);
  ScheduleStream stream(schedule);
  ExpectIdentical(schedule, CollectAll(stream), "schedule round trip");
  // Exhausted streams keep returning nullopt.
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(ArrivalStreamTest, EmptyInputsYieldEmptyStreams) {
  Rng rng(3);
  PoissonArrivalStream no_fns({}, 4.0, SimDuration::Minutes(1), 0.5, &rng);
  EXPECT_FALSE(no_fns.Next().has_value());
  PoissonArrivalStream no_rate(kFns, 0.0, SimDuration::Minutes(1), 0.5, &rng);
  EXPECT_FALSE(no_rate.Next().has_value());
  DiurnalArrivalStream no_fns_diurnal({}, DiurnalOptions{}, &rng);
  EXPECT_FALSE(no_fns_diurnal.Next().has_value());
  BurstyArrivalStream no_fns_bursty({}, BurstyOptions{}, &rng);
  EXPECT_FALSE(no_fns_bursty.Next().has_value());
  // None of the empty streams may have consumed a draw.
  Rng fresh(3);
  EXPECT_EQ(fresh.NextU64(), rng.NextU64());
}

}  // namespace
}  // namespace trenv
