// Latency/size recorders with percentile queries and CDF export.
//
// Benchmarks reproduce the paper's figures by printing percentile rows and CDF
// series; this recorder is the single implementation behind all of them.
#ifndef TRENV_COMMON_HISTOGRAM_H_
#define TRENV_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace trenv {

// Stores raw samples; suitable for the sample counts in this repo (<= millions).
// Mean/Stddev are O(1) from running moments; order statistics (Min/Max/
// Percentile/Cdf) sort lazily on first query after a mutation, so querying
// only the moments never pays for a sort.
class Histogram {
 public:
  void Record(double value);
  void RecordDuration(SimDuration d) { Record(d.millis()); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double Min() const;
  double Max() const;
  double Mean() const;
  double Stddev() const;
  // p in [0, 100]; linear interpolation between order statistics.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double P99() const { return Percentile(99); }

  // Returns (value, cumulative_fraction) pairs at each distinct sample,
  // subsampled to at most max_points for plotting.
  std::vector<std::pair<double, double>> Cdf(size_t max_points = 200) const;

  void Clear();
  void MergeFrom(const Histogram& other);

  // One-line summary: count / mean / p50 / p99 / max.
  std::string Summary() const;

 private:
  void EnsureSorted() const;

  // mutable: EnsureSorted reorders in place from const accessors (logical
  // state — the multiset of samples — is unchanged).
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0;     // running Σx, maintained by Record/Clear/MergeFrom
  double sum_sq_ = 0;  // running Σx²
};

// Tracks a quantity over virtual time (e.g. memory in use) and reports the
// peak as well as the time integral (byte-seconds, for cost modelling). It
// keeps no point log, so its size does not grow with the trace; a caller
// that plots the timeline keeps its own samples.
class TimeSeriesGauge {
 public:
  void Set(SimTime now, double value);
  void Add(SimTime now, double delta);

  double current() const { return current_; }
  double peak() const { return peak_; }
  // Integral of the gauge over time, in value * seconds.
  double TimeIntegral(SimTime end) const;

 private:
  double current_ = 0;
  double peak_ = 0;
  double integral_ = 0;  // value * seconds accumulated up to last_update_.
  SimTime last_update_;
};

}  // namespace trenv

#endif  // TRENV_COMMON_HISTOGRAM_H_
