// MetricsCollector: per-function latency recorders plus node-level memory
// and CPU accounting — the quantities behind every figure in section 9.
#ifndef TRENV_PLATFORM_METRICS_H_
#define TRENV_PLATFORM_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time.h"
#include "src/obs/registry.h"
#include "src/runtime/function_profile.h"

namespace trenv {

struct FunctionMetrics {
  Histogram e2e_ms;
  Histogram startup_ms;
  Histogram exec_ms;
  uint64_t invocations = 0;
  uint64_t warm_starts = 0;
  uint64_t repurposed_starts = 0;
  uint64_t cold_starts = 0;
  uint64_t prewarm_starts = 0;  // instances created ahead of a prediction

  // Adds `other`'s samples and counts to this one.
  void MergeFrom(const FunctionMetrics& other);
};

class MetricsCollector {
 public:
  MetricsCollector();
  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  // The deployed function's recorder: one vector index by the profile's id
  // once cached. The backing store stays keyed by the profile's name, so
  // reporting (per_function()) keeps its sorted-by-name iteration order.
  FunctionMetrics& ForFunction(const FunctionProfile& profile) {
    if (profile.id < by_id_.size() && by_id_[profile.id] != nullptr) {
      return *by_id_[profile.id];
    }
    return ForFunctionSlow(profile);
  }
  const std::map<std::string, FunctionMetrics>& per_function() const { return per_function_; }

  // Merged view across all functions.
  FunctionMetrics Aggregate() const;

  TimeSeriesGauge& memory_gauge() { return memory_gauge_; }
  const TimeSeriesGauge& memory_gauge() const { return memory_gauge_; }
  uint64_t peak_memory_bytes() const { return static_cast<uint64_t>(memory_gauge_.peak()); }

  // Named-counter/gauge registry shared by the whole node: the platform's own
  // accounting lives here alongside whatever any layer records, and the
  // Prometheus/Chrome exporters read it.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

  // Extra CPU-seconds burned on fetch handling (RDMA completions etc.) —
  // backed by the "platform.fetch_cpu_seconds" registry counter.
  void AddFetchCpuSeconds(double seconds) { fetch_cpu_->Add(seconds); }
  double fetch_cpu_seconds() const { return fetch_cpu_->value(); }

  void Clear();

 private:
  FunctionMetrics& ForFunctionSlow(const FunctionProfile& profile);

  std::map<std::string, FunctionMetrics> per_function_;
  // Cache: FunctionId -> map node (stable std::map pointers). Cleared with
  // per_function_ — the pointers die with the nodes.
  std::vector<FunctionMetrics*> by_id_;
  TimeSeriesGauge memory_gauge_;
  obs::Registry registry_;
  obs::Counter* fetch_cpu_;  // owned by registry_
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_METRICS_H_
