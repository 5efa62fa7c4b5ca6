// obs::Registry: named counters and gauges usable from any layer without
// plumbing MetricsCollector through constructors.
//
// Instruments are created on first use and live as long as the registry, so
// call sites can look a counter up once and keep the pointer — the hot-path
// cost of bumping a counter is a single `double` addition. A process-wide
// DefaultRegistry() exists for layers with no natural owner (the mm-template
// device, memory pools); components that want isolated accounting (the
// platform's MetricsCollector, tests) own a Registry of their own.
//
// Threading: instrument creation/lookup (GetCounter, GetGauge, Find*, Reset)
// is guarded by a mutex so concurrent sweep runs may touch the shared
// DefaultRegistry() — e.g. transient default bindings during construction —
// without racing. Counter::Add is an atomic CAS loop so counters bound to
// shared devices (the rack's CXL pool) survive concurrent per-shard drains;
// Gauge mutation stays lock-free-unsynchronized, so each concurrent
// simulation must own the gauges it writes (a sharded cluster run sets
// shared gauges only from the coordinator, between epochs). The
// counters()/gauges() iteration accessors require external quiescence
// (exporters run after the sweeps have joined).
#ifndef TRENV_OBS_REGISTRY_H_
#define TRENV_OBS_REGISTRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace trenv {
namespace obs {

// A monotonically increasing total (invocations, pages fetched, CPU-seconds).
// Reset() is for experiment windows, not for call sites.
//
// Add is a lock-free CAS loop: counters bound to SHARED devices (the rack's
// CXL pool) are bumped concurrently by per-shard drains in a sharded cluster
// run. Integer-valued deltas well below 2^53 commute exactly in a double, so
// the final total is independent of shard interleaving — the property the
// byte-identical-at-any---shards contract leans on. (A plain fetch_add on
// std::atomic<double> needs C++20 library support that is uneven across
// toolchains; the CAS loop is the portable spelling.)
class Counter {
 public:
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void Increment() { Add(1.0); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  double value() const { return value_.load(std::memory_order_relaxed); }
  // The total of a counter that only ever takes whole deltas (events, pages,
  // bytes), exact below 2^53.
  uint64_t count() const { return static_cast<uint64_t>(value()); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0.0};
};

// A sampled instantaneous value (pool occupancy, open streams). Remembers its
// high-water mark for end-of-run reporting.
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    max_ = std::max(max_, v);
  }
  void Add(double delta) { Set(value_ + delta); }
  void Reset() {
    value_ = 0.0;
    max_ = 0.0;
  }

  double value() const { return value_; }
  double max() const { return max_; }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  double value_ = 0.0;
  double max_ = 0.0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Returns the instrument named `name`, creating it on first use. The
  // returned pointer is stable for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  // Lookup without creation; nullptr if the instrument does not exist.
  const Counter* FindCounter(std::string_view name) const;

  // Zeroes every instrument's value but keeps the instruments themselves, so
  // cached pointers stay valid across experiment windows.
  void Reset();

  // Sorted-by-name iteration for the exporters.
  const std::map<std::string, std::unique_ptr<Counter>, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>, std::less<>>& gauges() const {
    return gauges_;
  }

 private:
  mutable std::mutex mu_;  // guards the maps, not the instrument values
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

// The process-wide registry for layers that have no owner to plumb one from.
Registry& DefaultRegistry();

}  // namespace obs
}  // namespace trenv

#endif  // TRENV_OBS_REGISTRY_H_
