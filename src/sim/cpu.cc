#include "src/sim/cpu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace trenv {

FairShareCpu::FairShareCpu(EventScheduler* scheduler, double cores)
    : scheduler_(scheduler), cores_(cores), last_sync_(scheduler->now()) {
  assert(cores > 0);
}

double FairShareCpu::current_load() const {
  double load = 0;
  for (const Task& task : tasks_) {
    load += task.weight;
  }
  return load;
}

double FairShareCpu::current_utilization() const {
  const double load = current_load();
  return std::min(1.0, load / cores_);
}

double FairShareCpu::consumed_cpu_seconds(SimTime now) const {
  double consumed = consumed_work_ns_;
  // Account the in-flight interval since the last sync.
  const double elapsed_ns = static_cast<double>((now - last_sync_).nanos());
  const double rate = RatePerUnitWeight();
  for (const Task& task : tasks_) {
    consumed += std::min(task.remaining_work_ns, elapsed_ns * rate * task.weight);
  }
  return consumed / 1e9;
}

double FairShareCpu::RatePerUnitWeight() const {
  const double load = current_load();
  if (load <= 0) {
    return 0;
  }
  // Each unit of weight progresses at min(1, cores/load) of full speed.
  return std::min(1.0, cores_ / load);
}

CpuTaskId FairShareCpu::Submit(SimDuration work, std::function<void()> on_complete) {
  return SubmitWeighted(work, 1.0, std::move(on_complete));
}

CpuTaskId FairShareCpu::SubmitWeighted(SimDuration work, double weight,
                                       std::function<void()> on_complete) {
  assert(weight > 0);
  Sync();
  const CpuTaskId id = next_id_++;
  tasks_.push_back(Task{id, std::max<double>(0.0, static_cast<double>(work.nanos())), weight,
                        std::move(on_complete)});
  Rearm();
  return id;
}

bool FairShareCpu::Cancel(CpuTaskId id) {
  Sync();
  auto it = std::lower_bound(tasks_.begin(), tasks_.end(), id,
                             [](const Task& task, CpuTaskId key) { return task.id < key; });
  if (it == tasks_.end() || it->id != id) {
    return false;
  }
  tasks_.erase(it);
  Rearm();
  return true;
}

void FairShareCpu::Reset() {
  tasks_.clear();
  pending_event_ = kInvalidEventId;
  last_sync_ = scheduler_->now();
}

void FairShareCpu::Sync() {
  const SimTime now = scheduler_->now();
  const double elapsed_ns = static_cast<double>((now - last_sync_).nanos());
  last_sync_ = now;
  if (elapsed_ns <= 0 || tasks_.empty()) {
    return;
  }
  const double rate = RatePerUnitWeight();
  for (Task& task : tasks_) {
    const double done = std::min(task.remaining_work_ns, elapsed_ns * rate * task.weight);
    task.remaining_work_ns -= done;
    consumed_work_ns_ += done;
  }
}

void FairShareCpu::Rearm() {
  if (pending_event_ != kInvalidEventId) {
    scheduler_->Cancel(pending_event_);
    pending_event_ = kInvalidEventId;
  }
  if (tasks_.empty()) {
    return;
  }
  // Find the earliest finisher under the current share.
  const double rate = RatePerUnitWeight();
  assert(rate > 0);
  double min_finish_ns = std::numeric_limits<double>::infinity();
  for (const Task& task : tasks_) {
    const double finish_ns = task.remaining_work_ns / (rate * task.weight);
    min_finish_ns = std::min(min_finish_ns, finish_ns);
  }
  const auto delay = SimDuration(static_cast<int64_t>(std::ceil(min_finish_ns)));
  pending_event_ = scheduler_->ScheduleAfter(delay, [this] {
    pending_event_ = kInvalidEventId;
    Sync();
    // Collect all tasks that have (numerically) finished, compacting the
    // survivors in place. A small epsilon absorbs floating-point residue from
    // the rate computation.
    constexpr double kEpsilonNs = 0.5;
    std::vector<std::function<void()>> done;
    auto kept = tasks_.begin();
    for (Task& task : tasks_) {
      if (task.remaining_work_ns <= kEpsilonNs) {
        consumed_work_ns_ += task.remaining_work_ns;
        done.push_back(std::move(task.on_complete));
      } else {
        if (&*kept != &task) {
          *kept = std::move(task);
        }
        ++kept;
      }
    }
    tasks_.erase(kept, tasks_.end());
    Rearm();
    for (auto& fn : done) {
      fn();
    }
  });
}

}  // namespace trenv
