#include "src/platform/metrics.h"

namespace trenv {

MetricsCollector::MetricsCollector()
    : fetch_cpu_(registry_.GetCounter("platform.fetch_cpu_seconds")) {}

void FunctionMetrics::MergeFrom(const FunctionMetrics& other) {
  e2e_ms.MergeFrom(other.e2e_ms);
  startup_ms.MergeFrom(other.startup_ms);
  exec_ms.MergeFrom(other.exec_ms);
  invocations += other.invocations;
  warm_starts += other.warm_starts;
  repurposed_starts += other.repurposed_starts;
  cold_starts += other.cold_starts;
  prewarm_starts += other.prewarm_starts;
}

FunctionMetrics MetricsCollector::Aggregate() const {
  FunctionMetrics total;
  for (const auto& [name, metrics] : per_function_) {
    total.MergeFrom(metrics);
  }
  return total;
}

FunctionMetrics& MetricsCollector::ForFunctionSlow(const FunctionProfile& profile) {
  FunctionMetrics& metrics = per_function_[profile.name];
  if (profile.id == kInvalidFunctionId) {
    return metrics;  // a hand-built profile: nothing to cache under
  }
  if (by_id_.size() <= profile.id) {
    by_id_.resize(profile.id + 1, nullptr);
  }
  by_id_[profile.id] = &metrics;
  return metrics;
}

void MetricsCollector::Clear() {
  per_function_.clear();
  by_id_.clear();  // cached pointers died with the map nodes
  memory_gauge_ = TimeSeriesGauge();
  registry_.Reset();  // keeps instruments (and cached pointers) alive
}

}  // namespace trenv
