// Deterministic random-number generation for workload synthesis.
//
// The simulator never uses std::random_device or global state: every source of
// randomness is an explicitly seeded Rng so that benchmark runs are replayable.
#ifndef TRENV_COMMON_RNG_H_
#define TRENV_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace trenv {

// xoshiro256** with a SplitMix64 seeder. Small, fast, and good enough
// statistical quality for workload generation.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t NextU64();
  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);
  // Uniform double in [0, 1).
  double NextDouble();
  // Uniform in [lo, hi].
  double NextUniform(double lo, double hi);
  int64_t NextInt(int64_t lo, int64_t hi);
  bool NextBool(double p_true);

  // Exponential with the given mean (> 0). Used for Poisson inter-arrivals.
  double NextExponential(double mean);
  // Normal via Box-Muller.
  double NextNormal(double mean, double stddev);
  // Log-normal parameterized by the mean/stddev of the *underlying* normal.
  double NextLogNormal(double mu, double sigma);
  // Pareto with scale x_m and shape alpha; models heavy-tailed bursts.
  double NextPareto(double x_min, double alpha);

  // Derives an independent child generator; convenient for fan-out.
  Rng Fork();

 private:
  uint64_t s_[4];
};

// Zipf-like rank selection over n items with skew s: rank k (0-based) has
// weight 1 / (k + 1)^s, and s <= 0 is uniform. Built once per item set; a
// draw is one NextDouble and a binary search over the cached CDF.
class ZipfSampler {
 public:
  // n may be 0 (an empty item set), but then Draw must not be called.
  ZipfSampler(uint64_t n, double s);
  // A rank in [0, n). n must be > 0.
  uint64_t Draw(Rng& rng) const;

 private:
  uint64_t n_;
  std::vector<double> cdf_;  // prefix sums of the weights; empty if s <= 0
};

// SplitMix64 single-step; exposed for seeding and for page-content derivation.
uint64_t SplitMix64(uint64_t& state);

// Stateless hash-style mix of a value; used to derive per-page logical content.
uint64_t MixU64(uint64_t v);

}  // namespace trenv

#endif  // TRENV_COMMON_RNG_H_
