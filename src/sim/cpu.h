// Processor-sharing CPU model.
//
// A FairShareCpu has C cores and a set of runnable tasks, each with some
// remaining CPU work. When k tasks are runnable, each progresses at rate
// min(1, C/k) - the classic work-conserving processor-sharing queue. This is
// how overcommit effects in the paper (200 agents on 20 cores, concurrent
// cold starts) appear in the simulation: latency inflation *emerges* from the
// share model rather than being hard-coded.
//
// A task optionally carries a weight (e.g. a browser process that aggregates
// the demand of several agents).
#ifndef TRENV_SIM_CPU_H_
#define TRENV_SIM_CPU_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time.h"
#include "src/sim/event_scheduler.h"

namespace trenv {

using CpuTaskId = uint64_t;
inline constexpr CpuTaskId kInvalidCpuTaskId = 0;

class FairShareCpu {
 public:
  FairShareCpu(EventScheduler* scheduler, double cores);

  // Submits a CPU burst of `work` (CPU-seconds at full speed). on_complete
  // fires when the burst finishes; actual wall time depends on contention.
  CpuTaskId Submit(SimDuration work, std::function<void()> on_complete);
  CpuTaskId SubmitWeighted(SimDuration work, double weight, std::function<void()> on_complete);

  // Cancels an in-flight burst (its callback never fires).
  bool Cancel(CpuTaskId id);

  // Drops every runnable task without completing it (crash recovery). The
  // pending completion event is assumed already gone — call this only after
  // the owning scheduler was Clear()ed.
  void Reset();

  double cores() const { return cores_; }
  size_t runnable_count() const { return tasks_.size(); }
  // Current aggregate demand (sum of weights of runnable tasks).
  double current_load() const;
  // Fraction of capacity currently used: min(1, load/cores).
  double current_utilization() const;
  // Total CPU-seconds consumed since construction, for utilization reports.
  double consumed_cpu_seconds(SimTime now) const;

 private:
  struct Task {
    CpuTaskId id;
    double remaining_work_ns;  // at full-speed execution
    double weight;
    std::function<void()> on_complete;
  };

  // Advances every runnable task's remaining work to the current instant and
  // re-arms the single completion event for the earliest finisher.
  void Sync();
  void Rearm();
  double RatePerUnitWeight() const;

  EventScheduler* scheduler_;
  double cores_;
  // Runnable tasks in ascending id order (ids only grow, so Submit appends).
  // Every walk (weight sums, progress updates, completion callbacks) runs in
  // that order: the floating-point sums depend on it, and the completion
  // instants on the sums.
  std::vector<Task> tasks_;
  CpuTaskId next_id_ = 1;
  SimTime last_sync_;
  EventId pending_event_ = kInvalidEventId;
  double consumed_work_ns_ = 0;
};

}  // namespace trenv

#endif  // TRENV_SIM_CPU_H_
