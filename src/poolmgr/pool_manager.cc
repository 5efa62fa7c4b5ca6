#include "src/poolmgr/pool_manager.h"

#include <algorithm>
#include <cassert>

#include "src/common/cost_model.h"
#include "src/common/rng.h"

namespace trenv {

namespace {

// A chunk's shard key: a hash chain over every page's logical content,
// h_{i+1} = Mix(h_i ^ page_i). Equal content gives an equal key, so a chunk
// shared by several images lands on one shard.
uint64_t ChunkFingerprint(const PlacedChunk& chunk) {
  uint64_t hash = 0x5ead0b6c0de5ULL;
  for (uint64_t i = 0; i < chunk.npages; ++i) {
    hash = MixU64(hash ^ (chunk.constant_content ? chunk.content_base : chunk.content_base + i));
  }
  return hash;
}

}  // namespace

PoolManager::PoolManager(PoolManagerConfig config, uint32_t worker_nodes,
                         MemoryBackend* fabric, EventScheduler* clock,
                         obs::Registry& stats)
    : config_(config),
      fabric_(fabric),
      clock_(clock),
      attaches_(stats.GetCounter("poolmgr.attaches")),
      lease_hits_(stats.GetCounter("poolmgr.lease_hits")),
      lease_misses_(stats.GetCounter("poolmgr.lease_misses")),
      leases_expired_(stats.GetCounter("poolmgr.leases_expired")),
      leases_revoked_(stats.GetCounter("poolmgr.leases_revoked")),
      replica_promotions_(stats.GetCounter("poolmgr.replica_promotions")),
      remote_fetch_pages_(stats.GetCounter("poolmgr.remote_fetch_pages")),
      remote_fetch_ops_(stats.GetCounter("poolmgr.remote_fetch_ops")),
      coalesced_requests_(stats.GetCounter("poolmgr.coalesced_requests")),
      rebalance_moves_(stats.GetCounter("poolmgr.rebalance_moves")),
      reseeded_shards_(stats.GetCounter("poolmgr.reseeded_shards")),
      shed_attaches_(stats.GetCounter("poolmgr.shed_attaches")),
      shed_pages_(stats.GetCounter("poolmgr.shed_pages")),
      dead_read_hops_(stats.GetCounter("poolmgr.dead_read_hops")),
      nas_fallback_pages_(stats.GetCounter("poolmgr.nas_fallback_pages")) {
  alive_.assign(config_.pool_nodes, true);
  served_pages_.assign(config_.pool_nodes, 0);
  for (uint32_t n = 0; n < config_.pool_nodes; ++n) {
    ring_.AddNode(n);
  }
  nics_.resize(worker_nodes);
  leases_.resize(worker_nodes);
}

void PoolManager::EnableContinuousControl(const ContinuousPoolPolicy& policy) {
  continuous_ = true;
  policy_ = policy;
}

void PoolManager::RegisterTemplate(FunctionId fid, const ConsolidatedImage& image) {
  if (fid == kInvalidFunctionId) {
    return;
  }
  if (templates_.size() <= fid) {
    templates_.resize(fid + 1);
    for (std::vector<Lease>& worker_leases : leases_) {
      worker_leases.resize(templates_.size());
    }
  }
  if (!templates_[fid].empty()) {
    return;  // already registered (every node deploys the same function)
  }
  std::vector<uint32_t>& shard_ids = templates_[fid];
  for (const auto& process : image.processes) {
    for (const PlacedRegion& placed : process) {
      for (const PlacedChunk& chunk : placed.chunks) {
        const uint32_t index = ShardFor(chunk);
        if (std::find(shard_ids.begin(), shard_ids.end(), index) == shard_ids.end()) {
          shard_ids.push_back(index);
        }
      }
    }
  }
}

uint32_t PoolManager::ShardFor(const PlacedChunk& chunk) {
  const auto key = std::make_tuple(chunk.content_base, chunk.npages, chunk.constant_content);
  if (const auto known = shard_by_content_.find(key); known != shard_by_content_.end()) {
    return known->second;  // dedup hit: runtimes shared across functions
  }
  const uint64_t fingerprint = ChunkFingerprint(chunk);
  const auto [it, fresh] =
      shard_by_fingerprint_.try_emplace(fingerprint, static_cast<uint32_t>(shards_.size()));
  if (fresh) {
    Shard shard;
    shard.fingerprint = fingerprint;
    shard.npages = chunk.npages;
    ring_.OwnersFor(fingerprint, config_.replication, &shard.replicas);
    shards_.push_back(std::move(shard));
  }
  shard_by_content_.emplace(key, it->second);
  return it->second;
}

bool PoolManager::EnsureLivePrimary(uint32_t shard_index) {
  Shard& shard = shards_[shard_index];
  if (!shard.replicas.empty()) {
    return true;
  }
  // Every holder crashed: reseed from the dedup store (the durable content
  // source) onto the current ring owners.
  shard.settled_ring_version = 0;
  ring_.OwnersFor(shard.fingerprint, config_.replication, &shard.replicas);
  if (shard.replicas.empty()) {
    return false;  // no pool node alive at all
  }
  reseeded_shards_->Increment();
  return true;
}

PoolManager::AttachOutcome PoolManager::Attach(uint32_t worker, FunctionId fid, SimTime now) {
  AttachOutcome outcome;
  attaches_->Increment();
  const std::vector<uint32_t>* shard_ids =
      fid < templates_.size() && !templates_[fid].empty() ? &templates_[fid] : nullptr;
  if (worker >= leases_.size() || shard_ids == nullptr) {
    outcome.latency = cost::kPoolAttachMetadataBase;
    return outcome;
  }
  outcome.latency = cost::kPoolAttachMetadataBase +
                    cost::kPoolAttachMetadataPerShard * static_cast<double>(shard_ids->size());
  if (leases_[worker][fid].held) {
    // Lease hit: the shards are already mapped on this worker; renew only.
    outcome.lease_hit = true;
    lease_hits_->Increment();
    GrantLease(worker, fid, now);
    attach_ms_.RecordDuration(outcome.latency);
    return outcome;
  }
  // Lease miss: pull every shard through this worker's NIC — from its
  // primary (legacy) or a hashed live replica (continuous spread reads).
  lease_misses_->Increment();
  std::vector<FetchRequest> requests;
  requests.reserve(shard_ids->size());
  uint64_t nas_pages = 0;   // shards with no reachable replica (continuous)
  uint64_t dead_hops = 0;   // timed-out reads to down-but-undeclared nodes
  for (const uint32_t shard_index : *shard_ids) {
    Shard& shard = shards_[shard_index];
    if (!EnsureLivePrimary(shard_index)) {
      if (continuous_) {
        nas_pages += shard.npages;  // whole pool gone: NAS serves, slower
      }
      continue;  // legacy fails open — the dedup store still serves
    }
    ++shard.fetches;
    uint32_t source = shard.replicas.front();
    if (continuous_ && !PickReadReplica(shard, worker, &source, &dead_hops)) {
      // Every listed replica is down and none declared dead yet: fall back
      // to NAS rather than stall the invocation on an unreachable copy.
      nas_pages += shard.npages;
      continue;
    }
    requests.push_back(FetchRequest{source, shard.npages});
  }
  // Admission control at the NicFetchQueue boundary: a cold attach landing
  // on a NIC whose backlog already exceeds the threshold is shed whole to
  // the NAS fallback path — it never deepens the incast queue, and it never
  // drops: the invocation pays the fallback latency and still gets a lease.
  if (continuous_ && policy_.shed_queue_threshold > SimDuration::Zero() &&
      !requests.empty() && NicBacklog(worker, now) > policy_.shed_queue_threshold) {
    shed_attaches_->Increment();
    uint64_t batch_pages = 0;
    for (const FetchRequest& request : requests) {
      batch_pages += request.npages;
    }
    shed_pages_->Add(static_cast<double>(batch_pages));
    nas_pages += batch_pages;
    requests.clear();
  }
  if (!requests.empty()) {
    for (const FetchRequest& request : requests) {
      if (request.source < served_pages_.size()) {
        served_pages_[request.source] += request.npages;
      }
    }
    const FetchOutcome fetch = nics_[worker].Issue(now, std::move(requests), fabric_);
    outcome.latency += fetch.Total();
    outcome.fetched_pages = fetch.pages;
    remote_fetch_pages_->Add(static_cast<double>(fetch.pages));
    remote_fetch_ops_->Add(static_cast<double>(fetch.ops));
    coalesced_requests_->Add(static_cast<double>(fetch.coalesced));
  }
  if (dead_hops > 0) {
    dead_read_hops_->Add(static_cast<double>(dead_hops));
    outcome.latency += cost::kDeadReadTimeout * static_cast<double>(dead_hops);
  }
  if (nas_pages > 0) {
    nas_fallback_pages_->Add(static_cast<double>(nas_pages));
    outcome.latency +=
        cost::kNasFallbackBase + cost::kNasFallbackPerPage * static_cast<double>(nas_pages);
  }
  GrantLease(worker, fid, now);
  attach_ms_.RecordDuration(outcome.latency);
  return outcome;
}

bool PoolManager::PickReadReplica(const Shard& shard, uint32_t worker, uint32_t* source,
                                  uint64_t* dead_hops) const {
  const size_t n = shard.replicas.size();
  size_t start = 0;
  if (policy_.spread_reads && n > 1) {
    // Hash, don't draw: the same (shard, worker) always starts at the same
    // replica, so spread reads stay byte-identical across runs and shards.
    start = static_cast<size_t>(MixU64(shard.fingerprint ^ (0x5EADu + worker)) % n);
  }
  for (size_t k = 0; k < n; ++k) {
    const uint32_t candidate = shard.replicas[(start + k) % n];
    if (candidate < alive_.size() && alive_[candidate]) {
      *source = candidate;
      return true;
    }
    ++*dead_hops;  // RPC to an undeclared-dead node times out first
  }
  return false;
}

void PoolManager::GrantLease(uint32_t worker, FunctionId fid, SimTime now) {
  trenv::GrantLease(
      *clock_, leases_[worker][fid], std::max(now, clock_->now()) + config_.lease_ttl,
      [this, worker, fid]() -> Lease& { return leases_[worker][fid]; },
      [this] { leases_expired_->Increment(); });
}

bool PoolManager::HoldsLease(uint32_t worker, FunctionId fid) const {
  return worker < leases_.size() && fid < leases_[worker].size() && leases_[worker][fid].held;
}

void PoolManager::ReleaseWorker(uint32_t worker) {
  if (worker < leases_.size()) {
    for (Lease& lease : leases_[worker]) {
      lease.Drop();
    }
  }
}

void PoolManager::OnPoolNodeCrash(uint32_t pool_node, SimTime when) {
  if (pool_node >= alive_.size() || !alive_[pool_node]) {
    return;
  }
  alive_[pool_node] = false;
  RemoveFromPlacement(pool_node);
  ScheduleRebalance(when + kRebalanceDelay);
}

void PoolManager::RemoveFromPlacement(uint32_t pool_node) {
  if (ring_.Contains(pool_node)) {
    ring_.RemoveNode(pool_node);
  }
  // Walk shards in index order (deterministic). Losing a replica is silent;
  // losing a *primary* promotes a survivor; losing the last replica revokes
  // every lease whose template includes the shard.
  std::vector<bool> shard_lost(shards_.size(), false);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const auto it = std::find(shard.replicas.begin(), shard.replicas.end(), pool_node);
    if (it == shard.replicas.end()) {
      continue;
    }
    const bool was_primary = it == shard.replicas.begin();
    shard.replicas.erase(it);
    shard.settled_ring_version = 0;
    if (shard.replicas.empty()) {
      shard_lost[s] = true;
    } else if (was_primary) {
      // Replica promotion: the next live replica serves reads; leases stay
      // valid because placement metadata is all that changes.
      replica_promotions_->Increment();
    }
  }
  // Revoke leases on templates that lost a shard entirely (replication 1):
  // those workers must re-fetch after the reseed.
  for (FunctionId fid = 0; fid < templates_.size(); ++fid) {
    bool lost = false;
    for (const uint32_t s : templates_[fid]) {
      if (shard_lost[s]) {
        lost = true;
        break;
      }
    }
    if (!lost) {
      continue;
    }
    for (std::vector<Lease>& worker_leases : leases_) {
      if (worker_leases[fid].held) {
        worker_leases[fid].Drop();
        leases_revoked_->Increment();
      }
    }
  }
}

void PoolManager::OnPoolNodeRestart(uint32_t pool_node, SimTime when) {
  if (pool_node >= alive_.size() || alive_[pool_node]) {
    return;
  }
  alive_[pool_node] = true;
  ring_.AddNode(pool_node);
  ScheduleRebalance(when + kRebalanceDelay);
}

void PoolManager::OnPoolNodeDown(uint32_t pool_node) {
  if (pool_node < alive_.size()) {
    alive_[pool_node] = false;
  }
}

void PoolManager::OnPoolNodeUp(uint32_t pool_node) {
  if (pool_node < alive_.size()) {
    alive_[pool_node] = true;
  }
}

void PoolManager::DeclareDead(uint32_t pool_node) {
  if (pool_node >= alive_.size() || !ring_.Contains(pool_node)) {
    return;  // already declared (or never known) — idempotent
  }
  RemoveFromPlacement(pool_node);
}

void PoolManager::DeclareJoined(uint32_t pool_node) {
  if (pool_node >= alive_.size() || ring_.Contains(pool_node)) {
    return;  // already a member — idempotent
  }
  // Its copies were dropped from the metadata at DeclareDead, so the node
  // rejoins empty; the continuous rebalancer re-copies shards under budget.
  ring_.AddNode(pool_node);
}

void PoolManager::ScheduleRebalance(SimTime when) {
  if (rebalance_pending_) {
    return;  // one sweep covers every membership change before it fires
  }
  rebalance_pending_ = true;
  clock_->ScheduleAt(std::max(when, clock_->now()), [this] {
    rebalance_pending_ = false;
    RunRebalance();
  });
}

bool PoolManager::SameOwnerSet(const std::vector<uint32_t>& replicas,
                               const std::vector<uint32_t>& desired) {
  if (replicas.size() != desired.size()) {
    return false;
  }
  for (const uint32_t node : desired) {
    if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
      return false;
    }
  }
  return true;  // same size, no duplicates in either — equal as sets
}

void PoolManager::RunRebalance() {
  if (ring_.node_count() == 0) {
    return;  // nothing alive to move to; retried after the next restart
  }
  std::vector<uint32_t> desired;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    ring_.OwnersFor(shard.fingerprint, config_.replication, &desired);
    // Converged means same owner *set*: after a rejoin the preserved
    // promoted primary leaves `replicas` as a rotation of `desired`, and an
    // exact-order compare would re-enter the move/rotate body on every
    // later sweep for any unrelated membership change. Skipping on set
    // equality makes repeat invocations — second crash epochs, rejoins,
    // back-to-back sweeps — true no-ops.
    if (SameOwnerSet(shard.replicas, desired)) {
      continue;
    }
    const bool was_lost = shard.replicas.empty();
    // Count one move per node that newly receives the shard (background
    // copy traffic, off the attach critical path).
    uint64_t additions = 0;
    for (const uint32_t node : desired) {
      if (std::find(shard.replicas.begin(), shard.replicas.end(), node) ==
          shard.replicas.end()) {
        ++additions;
      }
    }
    if (additions > 0) {
      rebalance_moves_->Add(static_cast<double>(additions));
      rebalanced_pages_ += additions * shard.npages;
    }
    if (was_lost) {
      reseeded_shards_->Increment();
    }
    // Keep a surviving primary in place when the ring still lists it —
    // promotion already redirected readers there; demoting it back would
    // churn leases for no benefit.
    const uint32_t old_primary = was_lost ? 0 : shard.replicas.front();
    shard.replicas = desired;
    shard.settled_ring_version = 0;
    if (!was_lost) {
      const auto it = std::find(shard.replicas.begin(), shard.replicas.end(), old_primary);
      if (it != shard.replicas.end() && it != shard.replicas.begin()) {
        std::rotate(shard.replicas.begin(), it, it + 1);
      }
    }
  }
}

PoolManager::ReconcileResult PoolManager::ReconcileShard(uint32_t shard_index,
                                                         uint32_t target_replication,
                                                         uint64_t budget_pages) {
  ReconcileResult result;
  if (shard_index >= shards_.size() || ring_.node_count() == 0) {
    result.converged = ring_.node_count() != 0;
    return result;
  }
  Shard& shard = shards_[shard_index];
  if (shard.settled_ring_version == ring_.version() &&
      shard.settled_target == target_replication) {
    // Settled: `replicas` is the ring's owner set at this target, so both
    // phases below would add, count and drop nothing, whatever alive_ says.
    assert(SameOwnerSet(shard.replicas, ring_.OwnersFor(shard.fingerprint, target_replication)));
    return result;
  }
  // Unsettle before phase 1: a call at another target can add copies
  // without converging, and a stamp left standing would let the next call
  // at the stamped target keep them.
  shard.settled_ring_version = 0;
  std::vector<uint32_t> desired;
  ring_.OwnersFor(shard.fingerprint, target_replication, &desired);
  if (desired.empty()) {
    result.converged = false;
    return result;
  }
  const bool was_lost = shard.replicas.empty();
  // Phase 1 — additions, budget-bound, restore-first: copy the shard onto
  // every desired owner it is missing from. Down owners are skipped (a copy
  // to an unreachable node moves no bytes); they keep the shard unconverged
  // so a later tick retries once the node answers or is declared dead.
  uint64_t added = 0;
  for (const uint32_t node : desired) {
    if (std::find(shard.replicas.begin(), shard.replicas.end(), node) !=
        shard.replicas.end()) {
      continue;
    }
    if (node >= alive_.size() || !alive_[node]) {
      continue;
    }
    if (result.pages_moved + shard.npages > budget_pages) {
      break;
    }
    shard.replicas.push_back(node);
    result.pages_moved += shard.npages;
    ++added;
  }
  if (added > 0) {
    rebalance_moves_->Add(static_cast<double>(added));
    rebalanced_pages_ += result.pages_moved;
  }
  if (was_lost && !shard.replicas.empty()) {
    reseeded_shards_->Increment();
  }
  for (const uint32_t node : desired) {
    if (std::find(shard.replicas.begin(), shard.replicas.end(), node) ==
        shard.replicas.end()) {
      result.converged = false;  // out of budget or owner down: retry later
      break;
    }
  }
  if (!result.converged) {
    return result;  // keep extra copies until the desired set is complete
  }
  // Phase 2 — drops, metadata-only and free: every desired owner holds a
  // copy, so surplus replicas (old homes, decayed hot-shard extras) can go.
  // The serving primary survives when it is still a desired owner.
  if (shard.replicas.size() > desired.size()) {
    const uint32_t old_primary = shard.replicas.front();
    std::vector<uint32_t> kept;
    kept.reserve(desired.size());
    for (const uint32_t node : shard.replicas) {
      if (std::find(desired.begin(), desired.end(), node) != desired.end()) {
        kept.push_back(node);
      }
    }
    shard.replicas = std::move(kept);
    if (!shard.replicas.empty() && shard.replicas.front() != old_primary && !was_lost) {
      replica_promotions_->Increment();
    }
  }
  // Every desired owner holds a copy and no other node does.
  shard.settled_ring_version = ring_.version();
  shard.settled_target = target_replication;
  return result;
}

uint64_t PoolManager::ShardFetches(uint32_t shard_index) const {
  return shard_index < shards_.size() ? shards_[shard_index].fetches : 0;
}

std::vector<uint32_t> PoolManager::ShardReplicas(uint32_t shard_index) const {
  return shard_index < shards_.size() ? shards_[shard_index].replicas
                                      : std::vector<uint32_t>{};
}

bool PoolManager::ShardUnderReplicated(uint32_t shard_index) const {
  if (shard_index >= shards_.size()) {
    return false;
  }
  const uint32_t want = std::min<uint32_t>(
      config_.replication, static_cast<uint32_t>(ring_.node_count()));
  uint32_t live = 0;
  for (const uint32_t node : shards_[shard_index].replicas) {
    if (node < alive_.size() && alive_[node]) {
      ++live;
    }
  }
  return live < want;
}

uint32_t PoolManager::UnderReplicatedShards() const {
  uint32_t count = 0;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (ShardUnderReplicated(s)) {
      ++count;
    }
  }
  return count;
}

SimDuration PoolManager::NicBacklog(uint32_t worker, SimTime now) const {
  if (worker >= nics_.size()) {
    return SimDuration::Zero();
  }
  const SimTime busy = nics_[worker].busy_until();
  return busy > now ? busy - now : SimDuration::Zero();
}

uint64_t PoolManager::PeakServedPages() const {
  uint64_t peak = 0;
  for (const uint64_t pages : served_pages_) {
    peak = std::max(peak, pages);
  }
  return peak;
}

std::vector<uint64_t> PoolManager::PrimaryPagesPerNode() const {
  std::vector<uint64_t> pages(alive_.size(), 0);
  for (const Shard& shard : shards_) {
    if (!shard.replicas.empty() && shard.replicas.front() < pages.size()) {
      pages[shard.replicas.front()] += shard.npages;
    }
  }
  return pages;
}

std::vector<uint64_t> PoolManager::ShardPagesPerNode() const {
  std::vector<uint64_t> pages(alive_.size(), 0);
  for (const Shard& shard : shards_) {
    for (const uint32_t node : shard.replicas) {
      if (node < pages.size()) {
        pages[node] += shard.npages;
      }
    }
  }
  return pages;
}

}  // namespace trenv
