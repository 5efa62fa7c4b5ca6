#include "src/common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace trenv {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t MixU64(uint64_t v) {
  uint64_t state = v;
  return SplitMix64(state);
}

namespace {
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Rejection-free Lemire reduction would be overkill; modulo bias is
  // negligible for workload synthesis with 64-bit inputs.
  return NextU64() % bound;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(hi >= lo);
  return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0) {
    u = 1e-300;
  }
  return -mean * std::log(u);
}

double Rng::NextNormal(double mean, double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0) {
    u1 = 1e-300;
  }
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextNormal(mu, sigma));
}

double Rng::NextPareto(double x_min, double alpha) {
  assert(x_min > 0 && alpha > 0);
  double u = NextDouble();
  if (u <= 0) {
    u = 1e-300;
  }
  return x_min / std::pow(u, 1.0 / alpha);
}

Rng Rng::Fork() { return Rng(NextU64()); }

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n) {
  if (s <= 0) {
    return;
  }
  cdf_.reserve(n);
  double acc = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_.push_back(acc);
  }
}

uint64_t ZipfSampler::Draw(Rng& rng) const {
  assert(n_ > 0);
  if (cdf_.empty()) {
    return rng.NextBounded(n_);
  }
  // The first rank whose prefix sum reaches the target, as a linear walk of
  // the same sums would find it.
  const double target = rng.NextDouble() * cdf_.back();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), target);
  return it == cdf_.end() ? n_ - 1 : static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace trenv
