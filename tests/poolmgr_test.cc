// Tests for the cross-node memory-pool control plane (src/poolmgr/):
// consistent-hash shard placement, NIC fetch batching, lease lifecycle,
// pool-node crash recovery, and locality-aware cluster dispatch.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "src/mempool/rdma_pool.h"
#include "src/platform/cluster.h"
#include "src/poolmgr/fetch_queue.h"
#include "src/poolmgr/hash_ring.h"
#include "src/poolmgr/pool_manager.h"

namespace trenv {
namespace {

// ---------------------------------------------------------------- HashRing

TEST(HashRingTest, PlacementIsDeterministic) {
  HashRing a;
  HashRing b;
  for (uint32_t n = 0; n < 6; ++n) {
    a.AddNode(n);
    b.AddNode(n);
  }
  for (uint64_t key = 1; key < 200; ++key) {
    EXPECT_EQ(a.OwnersFor(key, 3), b.OwnersFor(key, 3)) << "key " << key;
  }
}

TEST(HashRingTest, OwnersAreDistinctAndCapped) {
  HashRing ring;
  ring.AddNode(0);
  ring.AddNode(1);
  ring.AddNode(2);
  for (uint64_t key = 1; key < 100; ++key) {
    const auto owners = ring.OwnersFor(key, 2);
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_NE(owners[0], owners[1]);
    // Asking for more replicas than nodes returns every node once.
    const auto all = ring.OwnersFor(key, 8);
    EXPECT_EQ(std::set<uint32_t>(all.begin(), all.end()).size(), 3u);
  }
}

TEST(HashRingTest, RemovalRemapsOnlyAffectedKeys) {
  HashRing ring;
  for (uint32_t n = 0; n < 8; ++n) {
    ring.AddNode(n);
  }
  std::vector<uint32_t> before;
  std::vector<uint32_t> after;
  uint64_t moved = 0;
  constexpr uint64_t kKeys = 500;
  for (uint64_t key = 1; key <= kKeys; ++key) {
    ring.OwnersFor(key, 1, &before);
    HashRing smaller = ring;
    smaller.RemoveNode(3);
    smaller.OwnersFor(key, 1, &after);
    if (before[0] == 3) {
      EXPECT_NE(after[0], 3u);  // orphaned keys move somewhere live
    } else {
      EXPECT_EQ(before, after) << "key " << key << " moved without cause";
    }
    moved += before[0] == 3 ? 1 : 0;
  }
  // ~1/8 of keys lived on the removed node; consistent hashing must not
  // reshuffle the rest (allow generous slack on the proportion itself).
  EXPECT_GT(moved, kKeys / 20);
  EXPECT_LT(moved, kKeys / 3);
}

TEST(HashRingTest, VersionCountsMembershipChanges) {
  HashRing ring;
  EXPECT_EQ(ring.version(), 0u);
  ring.AddNode(1);
  ring.AddNode(2);
  EXPECT_EQ(ring.version(), 2u);
  // Re-adding a member or removing a stranger changes no owner set.
  ring.AddNode(2);
  ring.RemoveNode(7);
  EXPECT_EQ(ring.version(), 2u);
  ring.RemoveNode(1);
  EXPECT_EQ(ring.version(), 3u);
  ring.AddNode(1);  // a rejoin is a change too, even back to an old ring
  EXPECT_EQ(ring.version(), 4u);
}

TEST(HashRingTest, BalancesLoadAcrossNodes) {
  HashRing ring;
  for (uint32_t n = 0; n < 4; ++n) {
    ring.AddNode(n);
  }
  std::vector<uint64_t> hits(4, 0);
  constexpr uint64_t kKeys = 4000;
  std::vector<uint32_t> owners;
  for (uint64_t key = 1; key <= kKeys; ++key) {
    ring.OwnersFor(key * 0x9E3779B97F4A7C15ULL, 1, &owners);
    hits[owners[0]] += 1;
  }
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_GT(hits[n], kKeys / 8) << "node " << n << " starved";
    EXPECT_LT(hits[n], kKeys / 2) << "node " << n << " overloaded";
  }
}

// ------------------------------------------------------------ NicFetchQueue

TEST(FetchQueueTest, CoalescesSameSourceRequests) {
  RdmaPool fabric(kGiB);
  NicFetchQueue nic;
  const auto outcome = nic.Issue(
      SimTime::Zero(), {{/*source=*/1, 64}, {/*source=*/1, 32}, {/*source=*/1, 16}}, &fabric);
  EXPECT_EQ(outcome.ops, 1u);        // one transfer after coalescing
  EXPECT_EQ(outcome.coalesced, 2u);  // two requests merged into it
  EXPECT_EQ(outcome.pages, 112u);
  EXPECT_EQ(outcome.sources, 1u);
  EXPECT_EQ(outcome.queue_delay, SimDuration::Zero());
}

TEST(FetchQueueTest, IncastPenalizesFanIn) {
  // The same pages pulled from 4 sources must cost more than from 1: the
  // incast multiplier and the fabric's per-stream load factor both bite.
  RdmaPool fabric_wide(kGiB);
  NicFetchQueue wide(/*incast_penalty=*/0.25);
  const auto fan = wide.Issue(SimTime::Zero(), {{0, 32}, {1, 32}, {2, 32}, {3, 32}},
                              &fabric_wide);
  RdmaPool fabric_one(kGiB);
  NicFetchQueue one(/*incast_penalty=*/0.25);
  const auto single = one.Issue(SimTime::Zero(), {{0, 128}}, &fabric_one);
  EXPECT_EQ(fan.pages, single.pages);
  EXPECT_EQ(fan.sources, 4u);
  EXPECT_GT(fan.transfer, single.transfer);
}

TEST(FetchQueueTest, BusyNicQueuesTheNextBatch) {
  RdmaPool fabric(kGiB);
  NicFetchQueue nic;
  const auto first = nic.Issue(SimTime::Zero(), {{0, 256}}, &fabric);
  EXPECT_GT(first.transfer, SimDuration::Zero());
  // Issued while the NIC is still draining the first batch: the queue delay
  // is exactly the residual busy time.
  const SimTime mid = SimTime::Zero() + SimDuration(first.transfer.nanos() / 2);
  const auto second = nic.Issue(mid, {{0, 8}}, &fabric);
  EXPECT_EQ(second.queue_delay, nic.busy_until() - mid - second.transfer);
  EXPECT_GT(second.queue_delay, SimDuration::Zero());
  // Streams closed after each batch: no leak into the fabric's load factor.
  EXPECT_EQ(fabric.active_streams(), 0u);
}

TEST(FetchQueueTest, EmptyBatchIsANoOp) {
  RdmaPool fabric(kGiB);
  NicFetchQueue nic;
  const SimTime before = nic.busy_until();
  const auto outcome = nic.Issue(SimTime::Zero() + SimDuration::Seconds(5), {}, &fabric);
  EXPECT_EQ(outcome.pages, 0u);
  EXPECT_EQ(outcome.ops, 0u);
  EXPECT_EQ(outcome.runs, 0u);
  EXPECT_EQ(outcome.sources, 0u);
  EXPECT_EQ(outcome.Total(), SimDuration::Zero());
  // The NIC window is untouched: an empty batch must not reserve the NIC.
  EXPECT_EQ(nic.busy_until(), before);
  EXPECT_EQ(nic.total_ops(), 0u);
  EXPECT_EQ(fabric.active_streams(), 0u);
}

TEST(FetchQueueTest, SingleSourceCoalescesBulkAndDemandRequests) {
  // Bulk scatter-gather descriptors (nruns >= 1) and legacy demand requests
  // (nruns == 0) from one source coalesce into ONE bulk transfer; demand
  // requests folded into the descriptor count as one run each.
  RdmaPool fabric(kGiB);
  NicFetchQueue nic;
  const auto outcome = nic.Issue(SimTime::Zero(),
                                 {{/*source=*/2, 64, /*nruns=*/4},
                                  {/*source=*/2, 32, /*nruns=*/0},
                                  {/*source=*/2, 16, /*nruns=*/2}},
                                 &fabric);
  EXPECT_EQ(outcome.ops, 1u);
  EXPECT_EQ(outcome.coalesced, 2u);
  EXPECT_EQ(outcome.pages, 112u);
  EXPECT_EQ(outcome.runs, 7u);  // 4 + 1 (demand) + 2
  EXPECT_EQ(outcome.sources, 1u);
}

TEST(FetchQueueTest, IncastPenaltyStartsAtTheSecondSource) {
  // Boundary: a single-source batch pays NO incast penalty whatever the
  // configured rate; the multiplier bites from the second source on.
  RdmaPool fabric_a(kGiB);
  NicFetchQueue cheap(/*incast_penalty=*/0.0);
  RdmaPool fabric_b(kGiB);
  NicFetchQueue dear(/*incast_penalty=*/10.0);
  const auto cheap_single = cheap.Issue(SimTime::Zero(), {{0, 64, 1}}, &fabric_a);
  const auto dear_single = dear.Issue(SimTime::Zero(), {{0, 64, 1}}, &fabric_b);
  EXPECT_EQ(cheap_single.transfer, dear_single.transfer);

  RdmaPool fabric_c(kGiB);
  NicFetchQueue cheap2(/*incast_penalty=*/0.0);
  RdmaPool fabric_d(kGiB);
  NicFetchQueue dear2(/*incast_penalty=*/10.0);
  const auto cheap_fan = cheap2.Issue(SimTime::Zero(), {{0, 32, 1}, {1, 32, 1}}, &fabric_c);
  const auto dear_fan = dear2.Issue(SimTime::Zero(), {{0, 32, 1}, {1, 32, 1}}, &fabric_d);
  EXPECT_EQ(cheap_fan.sources, 2u);
  EXPECT_EQ(dear_fan.sources, 2u);
  // Same fabric state, same batch — the only difference is the penalty rate,
  // and with two sources it multiplies the transfer by (1 + 10.0 * 1).
  EXPECT_EQ(dear_fan.transfer, cheap_fan.transfer * 11.0);
}

TEST(FetchQueueTest, BusyWindowIsWorkConservingAcrossInterleavedBulkFetches) {
  // Three bulk batches: the second lands mid-drain (pays residual only), the
  // third lands exactly at busy_until (pays nothing). No idle gap, no
  // double-charge: the final window is the sum of all three transfers.
  RdmaPool fabric(kGiB);
  NicFetchQueue nic;
  const auto first = nic.Issue(SimTime::Zero(), {{0, 512, 8}}, &fabric);
  EXPECT_EQ(first.queue_delay, SimDuration::Zero());

  const SimTime mid = SimTime::Zero() + SimDuration(first.transfer.nanos() / 3);
  const auto second = nic.Issue(mid, {{1, 256, 4}}, &fabric);
  EXPECT_EQ(second.queue_delay, first.transfer - (mid - SimTime::Zero()));

  const SimTime at_drain = nic.busy_until();
  const auto third = nic.Issue(at_drain, {{0, 64, 2}}, &fabric);
  EXPECT_EQ(third.queue_delay, SimDuration::Zero());
  EXPECT_EQ(nic.busy_until(),
            SimTime::Zero() + first.transfer + second.transfer + third.transfer);
  EXPECT_EQ(nic.total_pages(), 512u + 256u + 64u);
  EXPECT_EQ(nic.total_ops(), 3u);
}

// -------------------------------------------------------------- PoolManager

ConsolidatedImage TwoChunkImage(PageContent content_a, PageContent content_b) {
  ConsolidatedImage image;
  PlacedRegion placed;
  placed.chunks.push_back(
      PlacedChunk{.pool = PoolKind::kCxl, .offset = 0, .npages = 512, .content_base = content_a});
  placed.chunks.push_back(PlacedChunk{
      .pool = PoolKind::kCxl, .offset = 512, .npages = 512, .content_base = content_b});
  image.processes.push_back({placed});
  image.total_pages = 1024;
  return image;
}

struct PoolManagerFixture {
  explicit PoolManagerFixture(PoolManagerConfig config, uint32_t workers = 2)
      : fabric(kGiB), mgr(config, workers, &fabric, &clock, stats) {}
  RdmaPool fabric;
  obs::Registry stats;
  EventScheduler clock;
  PoolManager mgr;
};

PoolManagerConfig SmallPoolConfig(uint32_t replication) {
  PoolManagerConfig config;
  config.enabled = true;
  config.pool_nodes = 4;
  config.replication = replication;
  config.lease_ttl = SimDuration::Seconds(10);
  return config;
}

TEST(PoolManagerTest, SharedChunksShareShards) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  fx.mgr.RegisterTemplate(1, TwoChunkImage(0xAA, 0xCC));  // 0xAA shared
  EXPECT_EQ(fx.mgr.shard_count(), 3u);
  // Replication 2: every shard's pages live on exactly two pool nodes.
  uint64_t total = 0;
  for (const uint64_t pages : fx.mgr.ShardPagesPerNode()) {
    total += pages;
  }
  EXPECT_EQ(total, 3u * 512u * 2u);
}

TEST(PoolManagerTest, ShardsFollowChunkContentNotPlacement) {
  // The shard key is a hash of the chunk's content. A constant chunk and a
  // progression from the same base hold different pages, so they are two
  // shards; one page of either holds the same content, so it is one shard,
  // as is the same content placed at a different pool offset.
  PoolManagerFixture fx(SmallPoolConfig(1));
  // A one-chunk image placed at `offset`.
  auto image = [](PoolKind pool, PoolOffset offset, uint64_t npages, PageContent content,
                  bool constant) {
    ConsolidatedImage one;
    PlacedRegion placed;
    placed.chunks.push_back(PlacedChunk{.pool = pool,
                                        .constant_content = constant,
                                        .offset = offset,
                                        .npages = npages,
                                        .content_base = content});
    one.processes.push_back({placed});
    return one;
  };
  fx.mgr.RegisterTemplate(0, image(PoolKind::kCxl, 0, 8, 0x77, false));
  fx.mgr.RegisterTemplate(1, image(PoolKind::kCxl, 8, 8, 0x77, true));
  EXPECT_EQ(fx.mgr.shard_count(), 2u);
  fx.mgr.RegisterTemplate(2, image(PoolKind::kCxl, 16, 1, 0x99, false));
  fx.mgr.RegisterTemplate(3, image(PoolKind::kCxl, 17, 1, 0x99, true));
  EXPECT_EQ(fx.mgr.shard_count(), 3u);
  fx.mgr.RegisterTemplate(4, image(PoolKind::kRdma, 64, 8, 0x77, false));
  EXPECT_EQ(fx.mgr.shard_count(), 3u);
  // Shifted or truncated content is a different chunk.
  fx.mgr.RegisterTemplate(5, image(PoolKind::kCxl, 32, 8, 0x78, false));
  fx.mgr.RegisterTemplate(6, image(PoolKind::kCxl, 40, 7, 0x77, false));
  EXPECT_EQ(fx.mgr.shard_count(), 5u);
}

TEST(PoolManagerTest, LeaseHitSkipsTheFetch) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  const auto miss = fx.mgr.Attach(0, 0, SimTime::Zero());
  EXPECT_FALSE(miss.lease_hit);
  EXPECT_EQ(miss.fetched_pages, 1024u);
  const auto hit = fx.mgr.Attach(0, 0, SimTime::Zero() + SimDuration::Seconds(1));
  EXPECT_TRUE(hit.lease_hit);
  EXPECT_EQ(hit.fetched_pages, 0u);
  EXPECT_LT(hit.latency, miss.latency);
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  // A different worker has no lease: it pays its own fetch.
  const auto other = fx.mgr.Attach(1, 0, SimTime::Zero() + SimDuration::Seconds(1));
  EXPECT_FALSE(other.lease_hit);
  // The hit renewed the lease past the miss's 10 s window.
  fx.mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Millis(10500));
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
}

TEST(PoolManagerTest, HoldsLeaseIsFalseOutsideTheTable) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  fx.mgr.RegisterTemplate(3, TwoChunkImage(0xCC, 0xDD));  // table rows: fids 0..3
  (void)fx.mgr.Attach(0, 0, SimTime::Zero());
  ASSERT_TRUE(fx.mgr.HoldsLease(0, 0));
  EXPECT_FALSE(fx.mgr.HoldsLease(2, 0));  // out-of-range worker
  EXPECT_FALSE(fx.mgr.HoldsLease(1000, 0));
  EXPECT_FALSE(fx.mgr.HoldsLease(0, kInvalidFunctionId));
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 1));   // never registered, inside the table
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 99));  // never registered, past it
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 3));   // registered, never attached
  EXPECT_FALSE(fx.mgr.HoldsLease(1, 0));   // attached on another worker only
}

TEST(PoolManagerTest, ReleaseWorkerZeroesOnlyItsLeases) {
  PoolManagerFixture fx(SmallPoolConfig(2), /*workers=*/3);
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  fx.mgr.RegisterTemplate(1, TwoChunkImage(0xCC, 0xDD));
  for (uint32_t worker = 0; worker < 3; ++worker) {
    for (FunctionId fid = 0; fid < 2; ++fid) {
      (void)fx.mgr.Attach(worker, fid, SimTime::Zero());
    }
  }
  fx.mgr.ReleaseWorker(1);
  for (FunctionId fid = 0; fid < 2; ++fid) {
    EXPECT_TRUE(fx.mgr.HoldsLease(0, fid));
    EXPECT_FALSE(fx.mgr.HoldsLease(1, fid));
    EXPECT_TRUE(fx.mgr.HoldsLease(2, fid));
  }
  // The released worker's grant windows lapse without counting an expiry.
  fx.mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(11));
  EXPECT_EQ(fx.mgr.leases_expired(), 4u);
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 0));
}

TEST(PoolManagerTest, LeasesExpirePerGrantWindow) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  (void)fx.mgr.Attach(0, 0, SimTime::Zero());
  (void)fx.mgr.Attach(0, 0, SimTime::Zero() + SimDuration::Seconds(5));
  ASSERT_TRUE(fx.mgr.HoldsLease(0, 0));
  // First grant's window ends at t=10s, second's at t=15s.
  fx.mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(12));
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  fx.mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(16));
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 0));
  EXPECT_EQ(fx.mgr.leases_expired(), 1u);  // counted once, when the last window lapses
}

SimTime At(int64_t seconds) { return SimTime::Zero() + SimDuration::Seconds(seconds); }

// Both workers attach at 0 s, lose the lease at 3 s through `drop`, and
// attach again at 7 s. The 0 s grants' checks, still pending, run at 10 s
// and must re-arm at 17 s instead of cutting the new leases short. Worker 1
// renews at 11 s, so worker 0's lapse at 17 s is the only expiry.
void ExpectStaleCheckKeepsTheNewLease(PoolManagerFixture& fx,
                                      const std::function<void()>& drop) {
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  for (uint32_t worker = 0; worker < 2; ++worker) {
    (void)fx.mgr.Attach(worker, 0, At(0));
  }
  fx.mgr.clock().RunUntil(At(3));
  drop();
  fx.mgr.clock().RunUntil(At(7));
  for (uint32_t worker = 0; worker < 2; ++worker) {
    EXPECT_FALSE(fx.mgr.Attach(worker, 0, At(7)).lease_hit);
  }
  fx.mgr.clock().RunUntil(At(11));
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  EXPECT_TRUE(fx.mgr.HoldsLease(1, 0));
  EXPECT_EQ(fx.mgr.leases_expired(), 0u);
  EXPECT_TRUE(fx.mgr.Attach(1, 0, At(11)).lease_hit);
  fx.mgr.clock().RunUntil(At(18));
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 0));
  EXPECT_TRUE(fx.mgr.HoldsLease(1, 0));
  EXPECT_EQ(fx.mgr.leases_expired(), 1u);
}

TEST(PoolManagerTest, ReleasedWorkersStaleCheckKeepsTheNewLease) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  ExpectStaleCheckKeepsTheNewLease(fx, [&] {
    fx.mgr.ReleaseWorker(0);
    fx.mgr.ReleaseWorker(1);
  });
}

TEST(PoolManagerTest, RevokedLeasesStaleCheckKeepsTheNewLease) {
  // Replication 1: every holder of a template shard crashes, which revokes
  // both leases, and one node restarts for the re-attach to reseed onto.
  PoolManagerFixture fx(SmallPoolConfig(1));
  ExpectStaleCheckKeepsTheNewLease(fx, [&] {
    for (uint32_t n = 0; n < 4 && fx.mgr.leases_revoked() == 0; ++n) {
      fx.mgr.OnPoolNodeCrash(n, At(3));
    }
    ASSERT_EQ(fx.mgr.leases_revoked(), 2u);
    fx.mgr.OnPoolNodeRestart(0, At(3));
  });
}

TEST(PoolManagerTest, RenewalsKeepOneCheckPending) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  SimTime last;
  for (int64_t i = 0; i < 100; ++i) {
    last = SimTime::Zero() + SimDuration::Millis(10 * i);
    fx.mgr.clock().RunUntil(last);
    (void)fx.mgr.Attach(0, 0, last);
  }
  EXPECT_EQ(fx.mgr.lease_hits(), 99u);
  EXPECT_EQ(fx.mgr.clock().pending_count(), 1u);
  // The first grant's check runs at 10 s and re-arms at the last deadline.
  const SimTime deadline = last + SimDuration::Seconds(10);
  fx.mgr.clock().RunUntil(deadline - SimDuration::Nanos(1));
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  EXPECT_EQ(fx.mgr.clock().pending_count(), 1u);
  fx.mgr.clock().RunUntil(deadline);
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 0));
  EXPECT_EQ(fx.mgr.leases_expired(), 1u);
  EXPECT_EQ(fx.mgr.clock().pending_count(), 0u);
}

TEST(PoolManagerTest, ReplicatedCrashPromotesWithoutRevoking) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  (void)fx.mgr.Attach(0, 0, SimTime::Zero());
  // Crash the pool node serving the most primary pages: with replication 2 a
  // surviving replica is promoted and no lease is revoked.
  const auto primaries = fx.mgr.PrimaryPagesPerNode();
  uint32_t victim = 0;
  for (uint32_t n = 1; n < primaries.size(); ++n) {
    if (primaries[n] > primaries[victim]) {
      victim = n;
    }
  }
  ASSERT_GT(primaries[victim], 0u);
  fx.mgr.OnPoolNodeCrash(victim, SimTime::Zero() + SimDuration::Seconds(1));
  EXPECT_EQ(fx.mgr.leases_revoked(), 0u);
  EXPECT_GT(fx.mgr.replica_promotions(), 0u);
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  // The next miss still finds a live source for every shard.
  const auto attach = fx.mgr.Attach(1, 0, SimTime::Zero() + SimDuration::Seconds(2));
  EXPECT_EQ(attach.fetched_pages, 1024u);
}

TEST(PoolManagerTest, UnreplicatedCrashRevokesAndReseeds) {
  PoolManagerFixture fx(SmallPoolConfig(1));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  (void)fx.mgr.Attach(0, 0, SimTime::Zero());
  (void)fx.mgr.Attach(1, 0, SimTime::Zero());
  // Kill every pool node holding a shard of the template.
  for (uint32_t n = 0; n < 4; ++n) {
    fx.mgr.OnPoolNodeCrash(n, SimTime::Zero() + SimDuration::Seconds(1));
    if (fx.mgr.leases_revoked() > 0) {
      break;
    }
  }
  // One revocation per worker that held the lease, and neither holds it now.
  EXPECT_EQ(fx.mgr.leases_revoked(), 2u);
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 0));
  EXPECT_FALSE(fx.mgr.HoldsLease(1, 0));
  // Restart one node: the reseed path repopulates from the dedup store and
  // the next attach succeeds as a plain miss.
  fx.mgr.OnPoolNodeRestart(0, SimTime::Zero() + SimDuration::Seconds(2));
  const auto attach = fx.mgr.Attach(0, 0, SimTime::Zero() + SimDuration::Seconds(3));
  EXPECT_FALSE(attach.lease_hit);
  EXPECT_EQ(attach.fetched_pages, 1024u);
  EXPECT_GT(fx.mgr.reseeded_shards(), 0u);
}

TEST(PoolManagerTest, RebalanceRestoresReplication) {
  auto config = SmallPoolConfig(2);
  PoolManagerFixture fx(config);
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  // Crash a node that actually holds shard pages, so the survivors are left
  // under-replicated until the rebalance fires.
  const auto held = fx.mgr.ShardPagesPerNode();
  uint32_t victim = 0;
  for (uint32_t n = 1; n < held.size(); ++n) {
    if (held[n] > held[victim]) {
      victim = n;
    }
  }
  ASSERT_GT(held[victim], 0u);
  fx.mgr.OnPoolNodeCrash(victim, SimTime::Zero() + SimDuration::Seconds(1));
  // The delayed rebalance fires kRebalanceDelay after the crash and restores
  // every shard to full replication on the surviving membership.
  fx.mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Seconds(1) +
                          PoolManager::kRebalanceDelay + SimDuration::Millis(1));
  EXPECT_GT(fx.mgr.rebalance_moves(), 0u);
  uint64_t total = 0;
  const auto per_node = fx.mgr.ShardPagesPerNode();
  for (const uint64_t pages : per_node) {
    total += pages;
  }
  EXPECT_EQ(per_node[victim], 0u);  // dead node holds nothing
  EXPECT_EQ(total, 2u * 512u * 2u);
}

TEST(HashRingTest, RapidAddRemoveReaddKeepsPlacementsStable) {
  HashRing ring;
  for (uint32_t n = 0; n < 8; ++n) {
    ring.AddNode(n);
  }
  const size_t vnodes = ring.vnode_count();
  constexpr uint64_t kKeys = 300;
  std::vector<std::vector<uint32_t>> before;
  before.reserve(kKeys);
  for (uint64_t key = 1; key <= kKeys; ++key) {
    before.push_back(ring.OwnersFor(key, 2));
  }
  // Rapid churn of the same node id: vnode positions are a pure function of
  // (node, replica), so a re-added node lands exactly where it was and no
  // placement moves. Double-adds and removals of strangers are no-ops.
  for (int cycle = 0; cycle < 5; ++cycle) {
    ring.RemoveNode(3);
    EXPECT_FALSE(ring.Contains(3));
    ring.RemoveNode(3);  // already gone: no-op
    ring.AddNode(3);
    EXPECT_TRUE(ring.Contains(3));
    ring.AddNode(3);  // already present: no duplicate vnodes
    ring.RemoveNode(99);
  }
  EXPECT_EQ(ring.vnode_count(), vnodes);
  EXPECT_EQ(ring.node_count(), 8u);
  for (uint64_t key = 1; key <= kKeys; ++key) {
    EXPECT_EQ(ring.OwnersFor(key, 2), before[key - 1]) << "key " << key;
  }
}

TEST(PoolManagerTest, RebalanceIsIdempotentAcrossRejoinEpochs) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  fx.mgr.RegisterTemplate(1, TwoChunkImage(0xCC, 0xDD));
  const auto held = fx.mgr.ShardPagesPerNode();
  uint32_t victim = 0;
  for (uint32_t n = 1; n < held.size(); ++n) {
    if (held[n] > held[victim]) {
      victim = n;
    }
  }
  ASSERT_GT(held[victim], 0u);
  const auto snapshot = [&] {
    std::vector<std::vector<uint32_t>> placements;
    for (uint32_t s = 0; s < fx.mgr.shard_count(); ++s) {
      placements.push_back(fx.mgr.ShardReplicas(s));
    }
    return std::make_tuple(placements, fx.mgr.ShardPagesPerNode(),
                           fx.mgr.PrimaryPagesPerNode(), fx.mgr.rebalance_moves(),
                           fx.mgr.rebalanced_pages(), fx.mgr.reseeded_shards(),
                           fx.mgr.replica_promotions());
  };
  const auto churn_epoch = [&](SimTime t) {
    fx.mgr.OnPoolNodeCrash(victim, t);
    fx.mgr.RunRebalance();
    fx.mgr.OnPoolNodeRestart(victim, t + SimDuration::Seconds(1));
    fx.mgr.RunRebalance();
  };
  churn_epoch(SimTime::Zero() + SimDuration::Seconds(1));
  const auto converged = snapshot();
  // Regression: the sweep used to compare replica lists order-sensitively,
  // so the promoted-primary rotation a rejoin leaves behind made every later
  // sweep re-enter the mutation body. Repeat sweeps must be structural
  // no-ops — placements AND counters untouched.
  fx.mgr.RunRebalance();
  EXPECT_EQ(snapshot(), converged);
  fx.mgr.RunRebalance();
  EXPECT_EQ(snapshot(), converged);
  // A second crash/rejoin epoch of the same node (the "assumes one crash
  // epoch" bug) converges to the identical placement, and repeat sweeps
  // after it are no-ops again.
  churn_epoch(SimTime::Zero() + SimDuration::Seconds(5));
  const auto second = snapshot();
  EXPECT_EQ(std::get<0>(second), std::get<0>(converged));
  EXPECT_EQ(std::get<1>(second), std::get<1>(converged));
  EXPECT_EQ(std::get<2>(second), std::get<2>(converged));
  fx.mgr.RunRebalance();
  EXPECT_EQ(snapshot(), second);
}

TEST(PoolManagerTest, ChurnLeavesNoOrphanedReplicas) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  fx.mgr.RegisterTemplate(1, TwoChunkImage(0xCC, 0xDD));
  const auto check_replicas = [&](size_t want) {
    for (uint32_t s = 0; s < fx.mgr.shard_count(); ++s) {
      const auto replicas = fx.mgr.ShardReplicas(s);
      EXPECT_EQ(replicas.size(), want) << "shard " << s;
      EXPECT_EQ(std::set<uint32_t>(replicas.begin(), replicas.end()).size(), replicas.size())
          << "shard " << s << " lists a node twice";
      for (const uint32_t node : replicas) {
        EXPECT_TRUE(fx.mgr.pool_node_alive(node))
            << "shard " << s << " orphaned on dead node " << node;
      }
    }
  };
  for (int cycle = 0; cycle < 3; ++cycle) {
    const SimTime t = SimTime::Zero() + SimDuration::Seconds(1 + 2 * cycle);
    fx.mgr.OnPoolNodeCrash(1, t);
    fx.mgr.RunRebalance();
    check_replicas(2);  // mid-churn: nothing points at the dead node
    fx.mgr.OnPoolNodeRestart(1, t + SimDuration::Seconds(1));
    fx.mgr.RunRebalance();
    check_replicas(2);
  }
}

TEST(PoolManagerTest, LeaseRenewalRacesShardMigration) {
  PoolManagerFixture fx(SmallPoolConfig(2));
  fx.mgr.RegisterTemplate(0, TwoChunkImage(0xAA, 0xBB));
  const auto miss = fx.mgr.Attach(0, 0, SimTime::Zero());
  ASSERT_EQ(miss.fetched_pages, 1024u);
  // Crash shard 0's primary: promotion redirects the shard to a survivor and
  // kicks off a migration (the delayed rebalance will re-replicate).
  const uint32_t victim = fx.mgr.ShardReplicas(0).front();
  fx.mgr.OnPoolNodeCrash(victim, SimTime::Zero() + SimDuration::Seconds(1));
  EXPECT_GE(fx.mgr.replica_promotions(), 1u);
  EXPECT_EQ(fx.mgr.leases_revoked(), 0u);
  // Renewal lands while the shard is mid-migration (under-replicated): it
  // must stay a metadata-only hit on the surviving lease.
  const auto renew = fx.mgr.Attach(0, 0, SimTime::Zero() + SimDuration::Millis(1500));
  EXPECT_TRUE(renew.lease_hit);
  EXPECT_EQ(renew.fetched_pages, 0u);
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  // Migration completes; the lease is still valid and renews again.
  fx.mgr.RunRebalance();
  const auto renew2 = fx.mgr.Attach(0, 0, SimTime::Zero() + SimDuration::Millis(2500));
  EXPECT_TRUE(renew2.lease_hit);
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  EXPECT_EQ(fx.mgr.leases_revoked(), 0u);
  // A cold worker fetches the full template from the post-migration
  // placement, and every shard's serving primary is a live node.
  const auto cold = fx.mgr.Attach(1, 0, SimTime::Zero() + SimDuration::Seconds(3));
  EXPECT_FALSE(cold.lease_hit);
  EXPECT_EQ(cold.fetched_pages, 1024u);
  for (uint32_t s = 0; s < fx.mgr.shard_count(); ++s) {
    EXPECT_TRUE(fx.mgr.pool_node_alive(fx.mgr.ShardReplicas(s).front()));
  }
  // Both renewals moved the deadline: the lease outlives the miss's 10 s
  // window and lapses 10 s after the last renewal.
  fx.mgr.clock().RunUntil(At(11));
  EXPECT_TRUE(fx.mgr.HoldsLease(0, 0));
  fx.mgr.clock().RunUntil(SimTime::Zero() + SimDuration::Millis(12500));
  EXPECT_FALSE(fx.mgr.HoldsLease(0, 0));
}

// ------------------------------------------------------------ Cluster level

ClusterConfig PoolClusterConfig(ClusterConfig::Dispatch dispatch, uint32_t replication) {
  ClusterConfig config;
  config.nodes = 4;
  config.dispatch = dispatch;
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = 4;
  config.poolmgr.replication = replication;
  return config;
}

Schedule SpacedSchedule(int count, SimDuration gap, const std::string& function) {
  Schedule schedule;
  for (int i = 0; i < count; ++i) {
    schedule.push_back({SimTime::Zero() + gap * i, function});
  }
  return schedule;
}

TEST(PoolClusterTest, DisabledByDefault) {
  Cluster cluster(ClusterConfig{});
  EXPECT_EQ(cluster.pool_manager(), nullptr);
}

TEST(PoolClusterTest, TemplateLocalityCutsRemoteFetches) {
  const auto run = [](ClusterConfig::Dispatch dispatch) {
    Cluster cluster(PoolClusterConfig(dispatch, 2));
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    EXPECT_TRUE(cluster.Run(SpacedSchedule(12, SimDuration::Millis(400), "JS")).ok());
    EXPECT_EQ(cluster.TotalInvocations(), 12u);
    return std::make_pair(cluster.pool_manager()->remote_fetch_pages(),
                          cluster.pool_manager()->lease_hits());
  };
  const auto [locality_pages, locality_hits] = run(ClusterConfig::Dispatch::kTemplateLocality);
  const auto [spread_pages, spread_hits] = run(ClusterConfig::Dispatch::kLeastLoaded);
  EXPECT_LT(locality_pages, spread_pages);
  EXPECT_GT(locality_hits, spread_hits);
}

TEST(PoolClusterTest, PoolCrashWithReplicationLosesNothing) {
  ClusterConfig config = PoolClusterConfig(ClusterConfig::Dispatch::kTemplateLocality, 2);
  config.faults.Add(PoolCrashWindow(SimTime::Zero() + SimDuration::Seconds(1),
                                    SimTime::Zero() + SimDuration::Seconds(2),
                                    /*probability=*/1.0, /*pool_node=*/1,
                                    /*restart_after=*/SimDuration::Zero()));
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  ASSERT_TRUE(cluster.Run(SpacedSchedule(16, SimDuration::Millis(250), "JS")).ok());
  // Zero accepted-invocation loss: every accepted invocation completed even
  // though a pool node died mid-run.
  EXPECT_EQ(cluster.accepted_invocations(), 16u);
  EXPECT_EQ(cluster.TotalInvocations(), 16u);
  EXPECT_FALSE(cluster.pool_manager()->pool_node_alive(1));
  EXPECT_EQ(cluster.pool_manager()->leases_revoked(), 0u);
}

TEST(PoolClusterTest, RunsAreDeterministic) {
  const auto fingerprint = [] {
    ClusterConfig config = PoolClusterConfig(ClusterConfig::Dispatch::kTemplateLocality, 2);
    config.faults.Add(PoolCrashWindow(SimTime::Zero() + SimDuration::Seconds(1),
                                      SimTime::Zero() + SimDuration::Seconds(2), 1.0, 1,
                                      SimDuration::Seconds(2)));
    Cluster cluster(config);
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    EXPECT_TRUE(cluster.Run(SpacedSchedule(10, SimDuration::Millis(300), "CR")).ok());
    const PoolManager& mgr = *cluster.pool_manager();
    return std::make_tuple(cluster.AggregateMetrics().e2e_ms.Mean(), mgr.remote_fetch_pages(),
                           mgr.lease_hits(), mgr.rebalance_moves(),
                           mgr.attach_ms().Percentile(99));
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

}  // namespace
}  // namespace trenv
