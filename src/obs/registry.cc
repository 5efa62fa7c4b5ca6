#include "src/obs/registry.h"

namespace trenv {
namespace obs {

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

const Counter* Registry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
}

Registry& DefaultRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace obs
}  // namespace trenv
