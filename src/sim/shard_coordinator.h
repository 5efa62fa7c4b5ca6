// ShardCoordinator: the epoch barrier under the sharded simulation core.
//
// A sharded cluster run splits its nodes across N shards, each owning the
// nodes' per-platform EventSchedulers. The run proceeds in epochs: the
// coordinator picks a global target time, RunEpoch() drains every shard up to
// it concurrently, and control returns to the coordinator for the serial
// work between epochs (dispatch, inbox routing, fault events). Shard 0
// always executes on the calling thread, so a 1-shard coordinator spawns no
// threads and is exactly the inline sequential loop — the bitwise reference
// the parallel runs are diffed against.
//
// The barrier is a hybrid: workers and the coordinator spin briefly (epochs
// are microseconds apart at simulation speed, so parking every epoch would
// dominate), then fall back to a condition variable. On a single-core host
// the spin budget is zero — spinning against the thread that must make
// progress only burns the scheduler quantum.
#ifndef TRENV_SIM_SHARD_COORDINATOR_H_
#define TRENV_SIM_SHARD_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trenv {

class ShardCoordinator {
 public:
  // Spawns shards-1 worker threads (none for shards <= 1).
  explicit ShardCoordinator(size_t shards);
  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;
  ~ShardCoordinator();

  // Runs fn(0), ..., fn(shards-1) concurrently — fn(0) on the calling
  // thread — and returns once every shard has finished. fn must not throw
  // and must touch only shard-local state (plus the atomics audited in
  // docs/simulation_model.md).
  void RunEpoch(const std::function<void(size_t)>& fn);

  size_t shards() const { return shards_; }
  uint64_t epochs() const { return epochs_; }
  // Wall-clock seconds the coordinator spent waiting for the slowest shard
  // after finishing its own shard-0 work: the synchronization overhead the
  // sharded_scale bench reports.
  double barrier_wait_seconds() const { return barrier_wait_seconds_; }

 private:
  void WorkerLoop(size_t worker_index);

  const size_t shards_;
  uint64_t epochs_ = 0;
  double barrier_wait_seconds_ = 0;
  // Iterations to spin before parking; zero when the host has fewer cores
  // than shards (spinning would starve the very threads being awaited).
  uint32_t spin_budget_ = 0;

  std::mutex mu_;
  std::condition_variable epoch_cv_;  // workers wait here for the next epoch
  std::condition_variable done_cv_;   // the coordinator waits here for workers
  // Epoch sequence number: bumped (under mu_, with release semantics) to
  // publish work_; workers acquire-load it to see the new work function.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> done_count_{0};
  const std::function<void(size_t)>* work_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace trenv

#endif  // TRENV_SIM_SHARD_COORDINATOR_H_
