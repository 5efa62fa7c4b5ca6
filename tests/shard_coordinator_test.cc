// ShardCoordinator: the epoch-barrier engine under Cluster::RunSharded. This
// binary is the TSan target in CI — every assertion here doubles as a data
// race probe over the spin/park handshake and the atomic Counter.
#include "src/sim/shard_coordinator.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/registry.h"

namespace trenv {
namespace {

TEST(ShardCoordinatorTest, RunsEveryShardOncePerEpoch) {
  ShardCoordinator coordinator(4);
  EXPECT_EQ(coordinator.shards(), 4u);
  std::vector<std::atomic<uint64_t>> runs(4);
  for (auto& r : runs) {
    r.store(0);
  }
  constexpr uint64_t kEpochs = 200;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    coordinator.RunEpoch([&](size_t shard) { runs[shard].fetch_add(1); });
  }
  EXPECT_EQ(coordinator.epochs(), kEpochs);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(runs[s].load(), kEpochs) << "shard " << s;
  }
}

TEST(ShardCoordinatorTest, SingleShardRunsInlineOnCallingThread) {
  ShardCoordinator coordinator(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  coordinator.RunEpoch([&](size_t shard) {
    EXPECT_EQ(shard, 0u);
    ran_on = std::this_thread::get_id();
  });
  // One shard means zero worker threads: the epoch body must run inline so a
  // 1-shard RunSharded is bitwise the single-threaded reference execution.
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(coordinator.barrier_wait_seconds(), 0.0);
}

TEST(ShardCoordinatorTest, EpochBarrierPublishesPlainWrites) {
  // Shard s writes cell s in epoch e; in epoch e+1 every shard reads ALL
  // cells from epoch e. Plain (non-atomic) accesses on purpose: the epoch
  // barrier itself must provide the happens-before edges, exactly as the
  // sharded cluster relies on when the coordinator reads node metrics and
  // fills the nodes' submit inboxes between epochs. TSan verifies the
  // ordering.
  constexpr size_t kShards = 4;
  constexpr uint64_t kEpochs = 500;
  ShardCoordinator coordinator(kShards);
  std::vector<uint64_t> cells(kShards, 0);
  for (uint64_t e = 1; e <= kEpochs; ++e) {
    coordinator.RunEpoch([&](size_t shard) {
      for (size_t other = 0; other < kShards; ++other) {
        ASSERT_EQ(cells[other], e - 1) << "shard " << shard << " epoch " << e;
      }
    });
    coordinator.RunEpoch([&](size_t shard) { cells[shard] = e; });
  }
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(cells[s], kEpochs);
  }
}

TEST(ShardCoordinatorTest, AtomicCounterIsExactUnderConcurrentAdds) {
  // Counters on shared devices absorb adds from every shard concurrently.
  // Integer-valued doubles commute exactly under the CAS loop, so the total
  // must be exact, not approximate.
  obs::Registry registry;
  obs::Counter* counter = registry.GetCounter("test.shared_adds");
  constexpr size_t kShards = 8;
  constexpr uint64_t kEpochs = 100;
  constexpr int kAddsPerEpoch = 64;
  ShardCoordinator coordinator(kShards);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    coordinator.RunEpoch([&](size_t) {
      for (int i = 0; i < kAddsPerEpoch; ++i) {
        counter->Add(1.0);
      }
    });
  }
  EXPECT_EQ(counter->value(), static_cast<double>(kShards * kEpochs * kAddsPerEpoch));
}

TEST(ShardCoordinatorTest, ShardsSeeDistinctIndices) {
  constexpr size_t kShards = 6;
  ShardCoordinator coordinator(kShards);
  std::vector<std::atomic<int>> seen(kShards);
  for (auto& s : seen) {
    s.store(0);
  }
  coordinator.RunEpoch([&](size_t shard) {
    ASSERT_LT(shard, kShards);
    seen[shard].fetch_add(1);
  });
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(seen[s].load(), 1) << "shard " << s;
  }
}

TEST(ShardCoordinatorTest, DestructorJoinsWorkersCleanly) {
  // Construct/destroy repeatedly, including with zero epochs run, to chase
  // shutdown races in the null-work stop signal.
  for (int round = 0; round < 20; ++round) {
    ShardCoordinator coordinator(3);
    if (round % 2 == 0) {
      coordinator.RunEpoch([](size_t) {});
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace trenv
