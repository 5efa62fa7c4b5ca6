#include "src/common/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace trenv {

void Histogram::Record(double value) {
  samples_.push_back(value);
  sum_ += value;
  sum_sq_ += value * value;
  sorted_ = false;
}

void Histogram::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::Min() const {
  assert(!samples_.empty());
  EnsureSorted();
  return samples_.front();
}

double Histogram::Max() const {
  assert(!samples_.empty());
  EnsureSorted();
  return samples_.back();
}

double Histogram::Mean() const {
  if (samples_.empty()) {
    return 0;
  }
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::Stddev() const {
  const size_t n = samples_.size();
  if (n < 2) {
    return 0;
  }
  // Sample variance from the running moments: (Σx² - n·mean²) / (n-1),
  // clamped at 0 against cancellation when all samples are (nearly) equal.
  const double mean = sum_ / static_cast<double>(n);
  const double var =
      (sum_sq_ - static_cast<double>(n) * mean * mean) / static_cast<double>(n - 1);
  return var > 0 ? std::sqrt(var) : 0;
}

double Histogram::Percentile(double p) const {
  assert(!samples_.empty());
  assert(p >= 0 && p <= 100);
  EnsureSorted();
  if (samples_.size() == 1) {
    return samples_[0];
  }
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<std::pair<double, double>> Histogram::Cdf(size_t max_points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty()) {
    return out;
  }
  EnsureSorted();
  const size_t n = samples_.size();
  const size_t stride = std::max<size_t>(1, n / max_points);
  for (size_t i = 0; i < n; i += stride) {
    out.emplace_back(samples_[i], static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (out.back().first != samples_.back()) {
    out.emplace_back(samples_.back(), 1.0);
  } else {
    out.back().second = 1.0;
  }
  return out;
}

void Histogram::Clear() {
  samples_.clear();
  sum_ = 0;
  sum_sq_ = 0;
  sorted_ = true;
}

void Histogram::MergeFrom(const Histogram& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  sorted_ = false;
}

std::string Histogram::Summary() const {
  std::ostringstream os;
  if (samples_.empty()) {
    os << "n=0";
    return os.str();
  }
  os.precision(3);
  os << "n=" << count() << " mean=" << Mean() << " p50=" << Median() << " p99=" << P99()
     << " max=" << Max();
  return os.str();
}

void TimeSeriesGauge::Set(SimTime now, double value) {
  assert(now >= last_update_);
  integral_ += current_ * (now - last_update_).seconds();
  last_update_ = now;
  current_ = value;
  peak_ = std::max(peak_, current_);
}

void TimeSeriesGauge::Add(SimTime now, double delta) { Set(now, current_ + delta); }

double TimeSeriesGauge::TimeIntegral(SimTime end) const {
  return integral_ + current_ * (end - last_update_).seconds();
}

}  // namespace trenv
