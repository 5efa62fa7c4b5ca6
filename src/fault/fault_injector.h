// FaultInjector: the single seeded source of failures for a simulation.
//
// One injector serves a whole rack. The mempool backends consult it per fetch
// attempt (OnFetchAttempt / DirectLoadMultiplier); the Cluster expands its
// node-level windows once up front (PlanNodeEvents) into a time-ordered crash/
// restart/pressure plan it interleaves with arrivals.
//
// Determinism contract: with an empty schedule — or outside every window —
// the injector draws NO random numbers and perturbs NO latencies, so a run
// with a null injector and a run with an idle injector are byte-identical.
// Inside windows, all draws come from the injector's own Rng (fetch-ordered)
// or from a fresh Rng derived from the schedule seed (node plan), never from
// the workload's generators, so adding faults does not shift workload
// synthesis and the same seed + schedule replays the identical fault
// sequence at any --jobs=N.
#ifndef TRENV_FAULT_FAULT_INJECTOR_H_
#define TRENV_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/simkernel/types.h"

namespace trenv {

class EventScheduler;

class FaultInjector {
 public:
  // `stats` holds the injector's counters, which the accessors below read.
  FaultInjector(FaultSchedule schedule, obs::Registry& stats);

  bool Active() const { return !schedule_.empty(); }
  const FaultSchedule& schedule() const { return schedule_; }

  // The injector reads virtual time from whichever scheduler is currently
  // driving the simulation. The Cluster rebinds this as it drains node
  // schedulers whose clocks diverge during DrainAll.
  void BindClock(const EventScheduler* scheduler) { clock_ = scheduler; }
  // Node whose backends are currently fetching; scopes kCxlPortDegrade
  // windows that target a single MHD port.
  void SetActiveNode(uint32_t node) { active_node_ = node; }

  // --- Fetch-path injection (called by MemoryBackend) -----------------------

  struct FetchFault {
    bool fail = false;     // attempt times out; retry after backoff
    bool corrupt = false;  // payload fails the receiver's checksum; refetch
    double latency_multiplier = 1.0;
  };
  // Evaluates the schedule for one fetch attempt against pool `kind` at the
  // current virtual time. Draws randomness only inside matching windows.
  FetchFault OnFetchAttempt(PoolKind kind, uint32_t pool_active_streams);
  // Deterministic (no-draw) multiplier for direct byte-addressable loads;
  // models a degraded CXL port. 1.0 outside kCxlPortDegrade windows.
  double DirectLoadMultiplier(PoolKind kind) const;

  // --- Node-level plan (consumed by Cluster) --------------------------------

  struct NodeEvent {
    enum class Kind : uint8_t {
      kCrash,
      kRestart,
      kPressureStart,
      kPressureEnd,
      // Pool-node (shard holder) events; `node` is a pool-node index, not a
      // worker index. Routed by the Cluster to the PoolManager.
      kPoolCrash,
      kPoolRestart,
    };
    SimTime time;
    uint32_t node = 0;
    Kind kind = Kind::kCrash;
    double severity = 1.0;  // soft-mem-cap scale for pressure events
  };
  // Expands kNodeCrash / kPoolPressure / kPoolNodeCrash windows into
  // concrete, time-sorted events for a rack of `node_count` worker nodes and
  // `pool_node_count` pool nodes. Uses a fresh Rng derived from the schedule
  // seed so the plan is independent of how many fetch-path draws have
  // happened.
  std::vector<NodeEvent> PlanNodeEvents(uint32_t node_count, uint32_t pool_node_count = 0);

  // --- Accounting -----------------------------------------------------------

  // Every probabilistic hit and node-plan crash, in injection order; the
  // determinism test compares two runs' logs element-wise.
  struct Injection {
    int64_t time_ns = 0;
    FaultDomain domain = FaultDomain::kRdmaFlap;
    uint32_t target = kAnyTarget;

    bool operator==(const Injection&) const = default;
  };
  const std::vector<Injection>& injection_log() const { return log_; }

  void CountRetry();
  void CountFailover(SimDuration recovery_latency);
  void CountDeferred();
  void CountRestart();
  void RecordInjection(SimTime t, FaultDomain domain, uint32_t target);

  uint64_t injected() const { return injected_->count(); }
  uint64_t retries() const { return retries_->count(); }
  uint64_t failovers() const { return failovers_->count(); }
  uint64_t crashes() const { return crashes_->count(); }
  uint64_t restarts() const { return restarts_->count(); }
  uint64_t deferred() const { return deferred_->count(); }
  uint64_t corrupt_fetches() const { return corrupt_fetches_->count(); }
  uint64_t exhausted_fetches() const { return exhausted_fetches_->count(); }
  const Histogram& recovery_ms() const { return recovery_ms_; }

 private:
  SimTime Now() const;
  void CountExhausted();
  void CountCorrupt();
  friend class MemoryBackend;  // uses CountExhausted/CountCorrupt in FetchLatency

  FaultSchedule schedule_;
  Rng rng_;
  const EventScheduler* clock_ = nullptr;
  uint32_t active_node_ = kAnyTarget;

  std::vector<Injection> log_;
  Histogram recovery_ms_;
  // Registry instruments: the only home of each count.
  obs::Counter* injected_;
  obs::Counter* retries_;
  obs::Counter* failovers_;
  obs::Counter* crashes_;
  obs::Counter* restarts_;
  obs::Counter* deferred_;
  obs::Counter* corrupt_fetches_;
  obs::Counter* exhausted_fetches_;
};

}  // namespace trenv

#endif  // TRENV_FAULT_FAULT_INJECTOR_H_
