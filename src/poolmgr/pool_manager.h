// PoolManager: the cross-node memory-pool control plane.
//
// The paper's templates live in a disaggregated pool that every worker node
// attaches remotely (sections 4-5); TrEnv-X pushes template management onto
// the pool side. This module is that control plane for the simulated rack:
//
//   * Sharded template store — the dedup store's content-addressed chunks
//     become shards, placed across pool nodes by consistent hashing
//     (HashRing) with a configurable replication factor. Placement is a pure
//     function of (fingerprint, live membership): no directory service.
//   * Lease-based remote attach — a worker taking a template pays the
//     shard transfers once, then holds a TTL lease (src/sim/lease.h): a
//     deadline each attach moves forward, with one expiry check pending on
//     the rack clock, an EventScheduler the Cluster owns and advances in
//     lock-step with the worker clocks. Further attaches on that worker are
//     metadata-only until the latest grant's window lapses.
//   * Failure wiring — a pool-node crash (FaultDomain::kPoolNodeCrash)
//     revokes nothing when replication >= 2: a surviving replica is promoted
//     to primary and leases stay valid. With replication 1 the lost shards'
//     leases are revoked and the shard is reseeded from the dedup store (the
//     durable content source) on next use. A delayed rebalance restores the
//     replication factor and, after restarts, moves shards back to their
//     ring positions.
//   * Per-NIC fetch path — shard transfers go through each worker's
//     NicFetchQueue (batching, coalescing, incast-aware queueing) on top of
//     the fabric backend's load-dependent latency and fault injection.
//
// Everything is deterministic: placement is arithmetic, transfers draw from
// the fabric's seeded Rng in call order, and all bookkeeping iterates in
// shard-index / FunctionId order.
#ifndef TRENV_POOLMGR_POOL_MANAGER_H_
#define TRENV_POOLMGR_POOL_MANAGER_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/interner.h"
#include "src/common/time.h"
#include "src/criu/deduplicator.h"
#include "src/obs/registry.h"
#include "src/poolmgr/fetch_queue.h"
#include "src/poolmgr/hash_ring.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/lease.h"

namespace trenv {

struct PoolManagerConfig {
  // false leaves the cluster exactly as it was before the control plane
  // existed (node-local stores, no leases) — the bit-identical default.
  bool enabled = false;
  uint32_t pool_nodes = 4;
  uint32_t replication = 2;
  // How long one attach grant keeps a worker's lease alive: each grant
  // moves the lease's deadline to at least its own time plus this.
  SimDuration lease_ttl = SimDuration::Seconds(60);
};

// Read / admission policy installed by the poolctl continuous control plane
// (src/poolctl). Only active after EnableContinuousControl; the legacy
// single-shot path never consults it, so the default cluster stays
// bit-identical.
struct ContinuousPoolPolicy {
  // Spread lease-miss reads across a shard's whole replica set (hashed by
  // fingerprint and worker) instead of always hitting the primary.
  bool spread_reads = true;
  // Cold attaches arriving while the worker NIC's residual backlog exceeds
  // this are shed to the NAS fallback path instead of deepening the incast
  // queue. Zero disables shedding. The invocation is never dropped: it pays
  // the (slower, contention-free) NAS cost and still gets its lease.
  SimDuration shed_queue_threshold;
};

class PoolManager {
 public:
  // Settle time between a legacy membership change and the rebalance sweep.
  static constexpr SimDuration kRebalanceDelay = SimDuration::Seconds(5);
  // `fabric` models the inter-node transfer path (not owned); `clock` is the
  // rack clock that lease expiries and rebalances run on (not owned); `stats`
  // holds the manager's counters, which the accessors below read. Worker NICs
  // are indexed [0, worker_nodes).
  PoolManager(PoolManagerConfig config, uint32_t worker_nodes, MemoryBackend* fabric,
              EventScheduler* clock, obs::Registry& stats);
  PoolManager(const PoolManager&) = delete;
  PoolManager& operator=(const PoolManager&) = delete;

  // The rack clock the manager schedules on; the Cluster advances it in
  // lock-step with the worker-node schedulers and drains it at end of run.
  EventScheduler& clock() { return *clock_; }

  // Registers a function's consolidated image: every chunk's content
  // fingerprint becomes (or joins) a shard placed on the ring. Idempotent
  // per fid.
  void RegisterTemplate(FunctionId fid, const ConsolidatedImage& image);

  struct AttachOutcome {
    SimDuration latency;        // metadata + (on miss) shard transfers
    uint64_t fetched_pages = 0;  // remote pages pulled over the NIC
    bool lease_hit = false;
  };
  // A worker attaches fid's template at `now`: lease hit renews for another
  // TTL window and costs metadata only; a miss fetches every shard through
  // the worker's NIC queue and grants a fresh lease.
  AttachOutcome Attach(uint32_t worker, FunctionId fid, SimTime now);

  // Whether the worker holds a lease on fid's template (false for a worker
  // or fid outside the table). An array read: dispatch asks once per
  // candidate worker.
  bool HoldsLease(uint32_t worker, FunctionId fid) const;
  // Drops every lease a crashed worker held (nothing orderly to tear down).
  void ReleaseWorker(uint32_t worker);

  // Pool-node failure wiring (driven by the Cluster's fault plan). The
  // legacy pair couples physical liveness and the membership decision: a
  // crash immediately removes the node from the ring and a restart re-adds
  // it, each scheduling a delayed single-shot rebalance.
  void OnPoolNodeCrash(uint32_t pool_node, SimTime when);
  void OnPoolNodeRestart(uint32_t pool_node, SimTime when);
  bool pool_node_alive(uint32_t pool_node) const {
    return pool_node < alive_.size() && alive_[pool_node];
  }
  uint32_t pool_node_count() const { return static_cast<uint32_t>(alive_.size()); }

  // --- continuous control (poolctl) ----------------------------------------
  // Splits the legacy crash/restart coupling in two: the *data plane* learns
  // a node stopped answering (reads skip it, paying a dead-read timeout),
  // while the *membership decision* — ring removal, promotion, revocation —
  // waits for the gossip protocol's declaration. Installed once by
  // PoolControlPlane; everything below is inert until then.
  void EnableContinuousControl(const ContinuousPoolPolicy& policy);
  bool continuous() const { return continuous_; }

  // Data-plane liveness only: no ring change, no promotion, no revocation.
  void OnPoolNodeDown(uint32_t pool_node);
  void OnPoolNodeUp(uint32_t pool_node);
  // Membership declarations from the gossip protocol. DeclareDead removes
  // the node from the ring, promotes replicas, and revokes leases on fully
  // lost shards; DeclareJoined re-adds it (its copies were dropped from the
  // metadata at declaration, so the rebalancer re-copies incrementally).
  // Both are idempotent.
  void DeclareDead(uint32_t pool_node);
  void DeclareJoined(uint32_t pool_node);

  struct ReconcileResult {
    uint64_t pages_moved = 0;
    // False when the shard still needs copies: the budget ran out or a
    // desired owner is down. Extra copies are only dropped once converged.
    bool converged = true;
  };
  // Moves one shard incrementally toward the ring owners at
  // `target_replication`, copying at most `budget_pages` pages. Additions
  // (restore replication first) precede drops; the serving primary is
  // preserved when it remains a desired owner. The continuous rebalancer's
  // per-tick primitive; the single-shot RunRebalance has its own loop. A
  // shard this left converged returns {0, converged} without a ring walk
  // until the ring's membership, the target or its replica set changes.
  ReconcileResult ReconcileShard(uint32_t shard_index, uint32_t target_replication,
                                 uint64_t budget_pages);

  // Immediate rebalance: restore replication for under-replicated shards and
  // re-align placements with the ring. Normally fires kRebalanceDelay after
  // a membership change; exposed for tests. Idempotent: a converged
  // shard (same owner set, primary preserved) is left untouched, so repeat
  // invocations — including after a node rejoin — change nothing.
  void RunRebalance();

  // --- accounting -----------------------------------------------------------
  const Histogram& attach_ms() const { return attach_ms_; }
  uint64_t remote_fetch_pages() const { return remote_fetch_pages_->count(); }
  uint64_t remote_fetch_ops() const { return remote_fetch_ops_->count(); }
  uint64_t coalesced_requests() const { return coalesced_requests_->count(); }
  uint64_t lease_hits() const { return lease_hits_->count(); }
  uint64_t lease_misses() const { return lease_misses_->count(); }
  uint64_t leases_expired() const { return leases_expired_->count(); }
  uint64_t leases_revoked() const { return leases_revoked_->count(); }
  uint64_t replica_promotions() const { return replica_promotions_->count(); }
  uint64_t rebalance_moves() const { return rebalance_moves_->count(); }
  uint64_t rebalanced_pages() const { return rebalanced_pages_; }
  uint64_t reseeded_shards() const { return reseeded_shards_->count(); }
  uint64_t shed_attaches() const { return shed_attaches_->count(); }
  uint64_t shed_pages() const { return shed_pages_->count(); }
  uint64_t dead_read_hops() const { return dead_read_hops_->count(); }
  uint64_t nas_fallback_pages() const { return nas_fallback_pages_->count(); }
  size_t shard_count() const { return shards_.size(); }
  uint32_t base_replication() const { return config_.replication; }
  // Lease-miss fetches this shard has served (the hot-shard signal).
  uint64_t ShardFetches(uint32_t shard_index) const;
  // Current replica set, primary first (introspection for poolctl + tests).
  std::vector<uint32_t> ShardReplicas(uint32_t shard_index) const;
  // True when the shard holds fewer *live* copies than
  // min(replication, live ring nodes) — what the continuous rebalancer's
  // restore-first pass targets.
  bool ShardUnderReplicated(uint32_t shard_index) const;
  uint32_t UnderReplicatedShards() const;
  // Residual NIC drain time at `now` for one worker (the admission signal).
  SimDuration NicBacklog(uint32_t worker, SimTime now) const;
  // Pages each pool node currently stores (primaries + replicas).
  std::vector<uint64_t> ShardPagesPerNode() const;
  // Pages each pool node serves as primary (the copy lease misses read).
  std::vector<uint64_t> PrimaryPagesPerNode() const;
  // Pages each pool node has actually served to lease misses — the observed
  // per-node lease traffic the hot-shard gate measures.
  const std::vector<uint64_t>& ServedPagesPerNode() const { return served_pages_; }
  uint64_t PeakServedPages() const;

 private:
  struct Shard {
    uint64_t fingerprint = 0;
    uint64_t npages = 0;
    // Lease-miss fetches served (all replicas combined); the control plane
    // diffs this per tick to score popularity.
    uint64_t fetches = 0;
    // Live replica set, primary first. Empty = lost (every holder crashed);
    // reseeded from the dedup store on next use or rebalance.
    std::vector<uint32_t> replicas;
    // The ring version and target at which ReconcileShard last left
    // `replicas` equal (as a set) to the ring's owners; 0 = not settled.
    // While both still match, a reconcile has nothing to add or drop. Every
    // other write to `replicas` clears the version.
    uint64_t settled_ring_version = 0;
    uint32_t settled_target = 0;
  };

  void GrantLease(uint32_t worker, FunctionId fid, SimTime now);
  // The shard holding `chunk`'s content, created on first sight. Each
  // distinct content is hashed once, however many templates share it.
  uint32_t ShardFor(const PlacedChunk& chunk);
  void ScheduleRebalance(SimTime when);
  // Ring removal + replica erase + promotion + lost-shard lease revocation —
  // the placement half of a crash, shared by OnPoolNodeCrash (legacy) and
  // DeclareDead (continuous). Idempotent.
  void RemoveFromPlacement(uint32_t pool_node);
  // True when the shard's owner set already equals `desired` (as a set) —
  // order-insensitive so a preserved promoted primary still counts as
  // converged (the idempotency fix for repeat rebalances after rejoins).
  static bool SameOwnerSet(const std::vector<uint32_t>& replicas,
                           const std::vector<uint32_t>& desired);
  // Picks the replica a lease miss reads for this shard. Legacy: always the
  // primary. Continuous: spread by (fingerprint, worker) hash, skipping
  // down-but-undeclared nodes (each skip is one timed-out read, counted into
  // `dead_hops`). Returns false when no listed replica answers.
  bool PickReadReplica(const Shard& shard, uint32_t worker, uint32_t* source,
                       uint64_t* dead_hops) const;
  // Ensures the shard has a live primary, reseeding from the dedup store if
  // every replica died. Returns false only when no pool node is alive.
  bool EnsureLivePrimary(uint32_t shard_index);

  PoolManagerConfig config_;
  MemoryBackend* fabric_;
  EventScheduler* clock_;
  HashRing ring_;
  std::vector<bool> alive_;          // pool-node liveness
  std::vector<NicFetchQueue> nics_;  // one per worker node

  std::vector<Shard> shards_;
  std::map<uint64_t, uint32_t> shard_by_fingerprint_;
  // (content_base, npages, constant_content) -> shard index.
  std::map<std::tuple<PageContent, uint64_t, bool>, uint32_t> shard_by_content_;
  // fid -> shard indices (sparse, indexed by interned FunctionId).
  std::vector<std::vector<uint32_t>> templates_;
  // Template leases, [worker][fid]. RegisterTemplate sizes every worker's
  // row to templates_.
  std::vector<std::vector<Lease>> leases_;
  bool rebalance_pending_ = false;
  bool continuous_ = false;
  ContinuousPoolPolicy policy_;
  // Lease-miss pages served per pool node (both modes; the hot-shard gate's
  // static-vs-continuous comparison reads it).
  std::vector<uint64_t> served_pages_;

  Histogram attach_ms_;
  // Background copy pages; no registry instrument counts them.
  uint64_t rebalanced_pages_ = 0;

  // Registry instruments: the only home of each count.
  obs::Counter* attaches_;
  obs::Counter* lease_hits_;
  obs::Counter* lease_misses_;
  obs::Counter* leases_expired_;
  obs::Counter* leases_revoked_;
  obs::Counter* replica_promotions_;
  obs::Counter* remote_fetch_pages_;
  obs::Counter* remote_fetch_ops_;
  obs::Counter* coalesced_requests_;
  obs::Counter* rebalance_moves_;
  obs::Counter* reseeded_shards_;
  obs::Counter* shed_attaches_;
  obs::Counter* shed_pages_;
  obs::Counter* dead_read_hops_;
  obs::Counter* nas_fallback_pages_;
};

}  // namespace trenv

#endif  // TRENV_POOLMGR_POOL_MANAGER_H_
