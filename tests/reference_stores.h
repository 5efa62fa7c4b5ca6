// Test-only reference implementations of the hot-path run stores and the
// processor-sharing CPU, preserved verbatim (modulo naming and dump
// accessors) from the original std::map code that shipped before the
// sorted-vector rewrites. The equivalence test
// (flat_store_equivalence_test.cc) drives randomized operation sequences
// through both a reference and its production counterpart and asserts the
// externally observable state — run boundaries, per-field values, lookups,
// counts, completion instants — is bit-identical after every operation.
// These classes exist only to pin that bar; nothing outside tests/ may
// include this file.
#ifndef TRENV_TESTS_REFERENCE_STORES_H_
#define TRENV_TESTS_REFERENCE_STORES_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sim/cpu.h"
#include "src/sim/event_scheduler.h"
#include "src/simkernel/page_table.h"
#include "src/simkernel/types.h"

namespace trenv {
namespace ref {

// The original std::map-backed PageTable (run key = first vpn of the run).
class RefPageTable {
 public:
  void MapRange(Vpn vpn, uint64_t npages, PteFlags flags, uint64_t backing_base,
                PageContent content_base, bool constant_content = false) {
    if (npages == 0) {
      return;
    }
    UnmapRange(vpn, npages);
    PteRun run;
    run.npages = npages;
    run.flags = flags;
    run.backing_base = backing_base;
    run.content_base = content_base;
    run.constant_content = constant_content;
    runs_.emplace(vpn, run);
    TryMergeAround(vpn);
  }

  uint64_t UnmapRange(Vpn vpn, uint64_t npages) {
    if (npages == 0) {
      return 0;
    }
    SplitAt(vpn);
    SplitAt(vpn + npages);
    uint64_t removed = 0;
    auto it = runs_.lower_bound(vpn);
    while (it != runs_.end() && it->first < vpn + npages) {
      removed += it->second.npages;
      it = runs_.erase(it);
    }
    return removed;
  }

  void ProtectRange(Vpn vpn, uint64_t npages) {
    if (npages == 0) {
      return;
    }
    SplitAt(vpn);
    SplitAt(vpn + npages);
    for (auto it = runs_.lower_bound(vpn); it != runs_.end() && it->first < vpn + npages;
         ++it) {
      it->second.flags.write_protected = true;
    }
  }

  std::optional<PteView> Lookup(Vpn vpn) const {
    auto it = runs_.upper_bound(vpn);
    if (it == runs_.begin()) {
      return std::nullopt;
    }
    --it;
    const Vpn start = it->first;
    const PteRun& run = it->second;
    if (vpn >= start + run.npages) {
      return std::nullopt;
    }
    const uint64_t idx = vpn - start;
    PteView view;
    view.flags = run.flags;
    view.backing = run.backing_base == kNoBacking ? kNoBacking : run.backing_base + idx;
    view.content = run.ContentAt(idx);
    return view;
  }

  void ForEachRunIn(Vpn vpn, uint64_t npages,
                    const std::function<void(Vpn, const PteRun&)>& fn) const {
    if (npages == 0) {
      return;
    }
    const Vpn end = vpn + npages;
    auto it = runs_.upper_bound(vpn);
    if (it != runs_.begin()) {
      --it;
    }
    for (; it != runs_.end() && it->first < end; ++it) {
      const Vpn run_start = it->first;
      const PteRun& run = it->second;
      const Vpn run_end = run_start + run.npages;
      if (run_end <= vpn) {
        continue;
      }
      const Vpn clip_start = std::max(run_start, vpn);
      const Vpn clip_end = std::min(run_end, end);
      const uint64_t skip = clip_start - run_start;
      PteRun clipped = run;
      clipped.npages = clip_end - clip_start;
      if (clipped.backing_base != kNoBacking) {
        clipped.backing_base += skip;
      }
      if (!clipped.constant_content) {
        clipped.content_base += skip;
      }
      fn(clip_start, clipped);
    }
  }

  void ForEachRun(const std::function<void(Vpn, const PteRun&)>& fn) const {
    for (const auto& [vpn, run] : runs_) {
      fn(vpn, run);
    }
  }

  void CloneFrom(const RefPageTable& other) {
    if (runs_.empty()) {
      for (const auto& [vpn, run] : other.runs_) {
        runs_.emplace_hint(runs_.end(), vpn, run);
      }
      return;
    }
    for (const auto& [vpn, run] : other.runs_) {
      MapRange(vpn, run.npages, run.flags, run.backing_base, run.content_base,
               run.constant_content);
    }
  }

  uint64_t run_count() const { return runs_.size(); }

  uint64_t mapped_pages() const {
    uint64_t total = 0;
    for (const auto& [vpn, run] : runs_) {
      total += run.npages;
    }
    return total;
  }

  uint64_t CountPagesIf(const std::function<bool(const PteFlags&)>& pred) const {
    uint64_t total = 0;
    for (const auto& [vpn, run] : runs_) {
      if (pred(run.flags)) {
        total += run.npages;
      }
    }
    return total;
  }

 private:
  void SplitAt(Vpn vpn) {
    auto it = runs_.upper_bound(vpn);
    if (it == runs_.begin()) {
      return;
    }
    --it;
    const Vpn start = it->first;
    PteRun& run = it->second;
    if (start == vpn || start + run.npages <= vpn) {
      return;
    }
    const uint64_t head_pages = vpn - start;
    PteRun tail = run;
    tail.npages = run.npages - head_pages;
    if (tail.backing_base != kNoBacking) {
      tail.backing_base += head_pages;
    }
    if (!tail.constant_content) {
      tail.content_base += head_pages;
    }
    run.npages = head_pages;
    runs_.emplace(vpn, tail);
  }

  void TryMergeAround(Vpn vpn) {
    auto it = runs_.find(vpn);
    if (it == runs_.end()) {
      return;
    }
    if (it != runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.npages == it->first &&
          prev->second.ContinuedBy(it->second, prev->second.npages)) {
        prev->second.npages += it->second.npages;
        runs_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != runs_.end() && it->first + it->second.npages == next->first &&
        it->second.ContinuedBy(next->second, it->second.npages)) {
      it->second.npages += next->second.npages;
      runs_.erase(next);
    }
  }

  std::map<Vpn, PteRun> runs_;
};

// The original std::map-backed ContentMap.
class RefContentMap {
 public:
  void Write(PoolOffset page, uint64_t npages, PageContent content_base) {
    if (npages == 0) {
      return;
    }
    Erase(page, npages);
    runs_.emplace(page, Run{npages, content_base});
  }

  Result<PageContent> Read(PoolOffset page) const {
    auto it = runs_.upper_bound(page);
    if (it == runs_.begin()) {
      return Status::NotFound("no content stored at pool offset");
    }
    --it;
    if (page >= it->first + it->second.npages) {
      return Status::NotFound("no content stored at pool offset");
    }
    return it->second.content_base + (page - it->first);
  }

  void Erase(PoolOffset page, uint64_t npages) {
    if (npages == 0) {
      return;
    }
    SplitAt(page);
    SplitAt(page + npages);
    auto it = runs_.lower_bound(page);
    while (it != runs_.end() && it->first < page + npages) {
      it = runs_.erase(it);
    }
  }

  uint64_t stored_pages() const {
    uint64_t total = 0;
    for (const auto& [base, run] : runs_) {
      total += run.npages;
    }
    return total;
  }

  uint64_t run_count() const { return runs_.size(); }

  // Dump accessor for the equivalence test: (base, npages, content_base).
  std::vector<std::tuple<PoolOffset, uint64_t, PageContent>> DumpRuns() const {
    std::vector<std::tuple<PoolOffset, uint64_t, PageContent>> out;
    out.reserve(runs_.size());
    for (const auto& [base, run] : runs_) {
      out.emplace_back(base, run.npages, run.content_base);
    }
    return out;
  }

 private:
  struct Run {
    uint64_t npages;
    PageContent content_base;
  };

  void SplitAt(PoolOffset page) {
    auto it = runs_.upper_bound(page);
    if (it == runs_.begin()) {
      return;
    }
    --it;
    const PoolOffset start = it->first;
    Run& run = it->second;
    if (start == page || start + run.npages <= page) {
      return;
    }
    const uint64_t head = page - start;
    Run tail{run.npages - head, run.content_base + head};
    run.npages = head;
    runs_.emplace(page, tail);
  }

  std::map<PoolOffset, Run> runs_;
};

// The original std::map-backed first-fit BlockAllocator.
class RefBlockAllocator {
 public:
  explicit RefBlockAllocator(uint64_t total_pages) : total_pages_(total_pages) {
    if (total_pages > 0) {
      free_list_.emplace(0, total_pages);
    }
  }

  Result<PoolOffset> Allocate(uint64_t n) {
    if (n == 0) {
      return Status::InvalidArgument("zero-page allocation");
    }
    for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
      if (it->second >= n) {
        const PoolOffset base = it->first;
        const uint64_t remaining = it->second - n;
        free_list_.erase(it);
        if (remaining > 0) {
          free_list_.emplace(base + n, remaining);
        }
        used_pages_ += n;
        return base;
      }
    }
    return Status::OutOfMemory("pool exhausted or fragmented");
  }

  Status Free(PoolOffset base, uint64_t n) {
    if (n == 0 || base + n > total_pages_) {
      return Status::InvalidArgument("free range out of bounds");
    }
    auto it = free_list_.upper_bound(base);
    if (it != free_list_.end() && it->first < base + n) {
      return Status::InvalidArgument("double free (overlaps free extent)");
    }
    if (it != free_list_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second > base) {
        return Status::InvalidArgument("double free (overlaps free extent)");
      }
    }
    free_list_.emplace(base, n);
    assert(used_pages_ >= n);
    used_pages_ -= n;
    CoalesceAround(base);
    return Status::Ok();
  }

  uint64_t used_pages() const { return used_pages_; }
  uint64_t free_pages() const { return total_pages_ - used_pages_; }

  uint64_t LargestFreeExtent() const {
    uint64_t largest = 0;
    for (const auto& [base, len] : free_list_) {
      largest = std::max(largest, len);
    }
    return largest;
  }

  uint64_t free_extent_count() const { return free_list_.size(); }

  // Dump accessor for the equivalence test: (base, len) of each free extent.
  std::vector<std::pair<PoolOffset, uint64_t>> DumpFreeList() const {
    return {free_list_.begin(), free_list_.end()};
  }

 private:
  void CoalesceAround(PoolOffset base) {
    auto it = free_list_.find(base);
    assert(it != free_list_.end());
    if (it != free_list_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_list_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != free_list_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_list_.erase(next);
    }
  }

  uint64_t total_pages_;
  uint64_t used_pages_ = 0;
  std::map<PoolOffset, uint64_t> free_list_;
};

// The original std::map-backed FairShareCpu (task key = CpuTaskId).
class RefFairShareCpu {
 public:
  RefFairShareCpu(EventScheduler* scheduler, double cores)
      : scheduler_(scheduler), cores_(cores), last_sync_(scheduler->now()) {
    assert(cores > 0);
  }

  CpuTaskId Submit(SimDuration work, std::function<void()> on_complete) {
    return SubmitWeighted(work, 1.0, std::move(on_complete));
  }

  CpuTaskId SubmitWeighted(SimDuration work, double weight, std::function<void()> on_complete) {
    assert(weight > 0);
    Sync();
    const CpuTaskId id = next_id_++;
    Task task;
    task.remaining_work_ns = std::max<double>(0.0, static_cast<double>(work.nanos()));
    task.weight = weight;
    task.on_complete = std::move(on_complete);
    tasks_.emplace(id, std::move(task));
    Rearm();
    return id;
  }

  bool Cancel(CpuTaskId id) {
    Sync();
    auto it = tasks_.find(id);
    if (it == tasks_.end()) {
      return false;
    }
    tasks_.erase(it);
    Rearm();
    return true;
  }

  void Reset() {
    tasks_.clear();
    pending_event_ = kInvalidEventId;
    last_sync_ = scheduler_->now();
  }

  size_t runnable_count() const { return tasks_.size(); }

  double current_load() const {
    double load = 0;
    for (const auto& [id, task] : tasks_) {
      load += task.weight;
    }
    return load;
  }

  double current_utilization() const {
    const double load = current_load();
    return std::min(1.0, load / cores_);
  }

  double consumed_cpu_seconds(SimTime now) const {
    double consumed = consumed_work_ns_;
    // Account the in-flight interval since the last sync.
    const double elapsed_ns = static_cast<double>((now - last_sync_).nanos());
    const double rate = RatePerUnitWeight();
    for (const auto& [id, task] : tasks_) {
      consumed += std::min(task.remaining_work_ns, elapsed_ns * rate * task.weight);
    }
    return consumed / 1e9;
  }

 private:
  struct Task {
    double remaining_work_ns;  // at full-speed execution
    double weight;
    std::function<void()> on_complete;
  };

  double RatePerUnitWeight() const {
    const double load = current_load();
    if (load <= 0) {
      return 0;
    }
    // Each unit of weight progresses at min(1, cores/load) of full speed.
    return std::min(1.0, cores_ / load);
  }

  void Sync() {
    const SimTime now = scheduler_->now();
    const double elapsed_ns = static_cast<double>((now - last_sync_).nanos());
    last_sync_ = now;
    if (elapsed_ns <= 0 || tasks_.empty()) {
      return;
    }
    const double rate = RatePerUnitWeight();
    for (auto& [id, task] : tasks_) {
      const double done = std::min(task.remaining_work_ns, elapsed_ns * rate * task.weight);
      task.remaining_work_ns -= done;
      consumed_work_ns_ += done;
    }
  }

  void Rearm() {
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
    for (const auto& [id, task] : tasks_) {
      const double finish_ns = task.remaining_work_ns / (rate * task.weight);
      min_finish_ns = std::min(min_finish_ns, finish_ns);
    }
    const auto delay = SimDuration(static_cast<int64_t>(std::ceil(min_finish_ns)));
    pending_event_ = scheduler_->ScheduleAfter(delay, [this] {
      pending_event_ = kInvalidEventId;
      Sync();
      // Collect all tasks that have (numerically) finished. A small epsilon
      // absorbs floating-point residue from the rate computation.
      constexpr double kEpsilonNs = 0.5;
      std::vector<std::function<void()>> done;
      for (auto it = tasks_.begin(); it != tasks_.end();) {
        if (it->second.remaining_work_ns <= kEpsilonNs) {
          consumed_work_ns_ += it->second.remaining_work_ns;
          done.push_back(std::move(it->second.on_complete));
          it = tasks_.erase(it);
        } else {
          ++it;
        }
      }
      Rearm();
      for (auto& fn : done) {
        fn();
      }
    });
  }

  EventScheduler* scheduler_;
  double cores_;
  std::map<CpuTaskId, Task> tasks_;
  CpuTaskId next_id_ = 1;
  SimTime last_sync_;
  EventId pending_event_ = kInvalidEventId;
  double consumed_work_ns_ = 0;
};

}  // namespace ref
}  // namespace trenv

#endif  // TRENV_TESTS_REFERENCE_STORES_H_
