// DensityManager: the high-density keep-alive story (ROADMAP item 3). A
// node's soft memory cap used to be a binary admission rule — over the cap,
// evict warm instances until under it. That caps warm density at
// cap / mean-instance-RSS and throws the environment away exactly when the
// paper says it is cheapest to keep (the sandbox and template attach
// survive; only the dirty pages are per-instance).
//
// Instead, idle environments now migrate down a tier ladder
//
//   DRAM-hot  --(idle > demote_hot_after)-->  CXL-warm
//   CXL-warm  --(idle > demote_warm_after)--> NAS-cold
//
// on a background sweep clocked by the platform's EventScheduler, guided by
// age and a per-function traffic EWMA (recently-trafficked functions stay
// hot; the Nexus lesson is that density must not trade away the latency
// SLO). Demotion moves the instance's dirty private pages into the pool
// backend of the target tier and releases the node DRAM frames; the page
// tables are untouched, so promotion is a frame re-charge plus the tier's
// real fetch latency (CXL bandwidth or NAS block I/O) on the attach path.
//
// Pressure handling composes with this: the soft cap (and injected pool-
// pressure windows that squeeze it) first triggers a demotion storm — idle
// DRAM-hot instances demote LRU-first, freeing frames while keeping the
// environments warm — and only evicts once there is nothing left to demote
// and the pool-wide footprint exceeds the configured overcommit ceiling.
//
// Everything here is off by default (DensityConfig::enabled == false): the
// platform then never calls into the manager from a hot path, keeping every
// existing bench bit-identical.
#ifndef TRENV_DENSITY_DENSITY_MANAGER_H_
#define TRENV_DENSITY_DENSITY_MANAGER_H_

#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/interner.h"
#include "src/common/time.h"
#include "src/density/tier.h"
#include "src/mempool/backend.h"
#include "src/obs/registry.h"
#include "src/platform/keep_alive_pool.h"
#include "src/sim/event_scheduler.h"
#include "src/simkernel/frame_allocator.h"

namespace trenv {

struct DensityConfig {
  // Master switch. When false the platform takes its historical code paths
  // and the manager is never consulted.
  bool enabled = false;
  // Background migration cadence and the idle-age thresholds per rung.
  SimDuration sweep_interval = SimDuration::Seconds(10);
  SimDuration demote_hot_after = SimDuration::Seconds(30);
  SimDuration demote_warm_after = SimDuration::Minutes(3);
  // Overcommit: total parked footprint (FootprintModel::NodeBytes, summed
  // across ALL tiers) may reach overcommit_factor x the effective soft cap
  // before eviction starts. This is what replaces the binary cap: demoted
  // instances cost the node only metadata, so the pool can hold far more
  // warm state than the DRAM budget, but not unboundedly.
  double overcommit_factor = 16.0;
};

class DensityManager {
 public:
  // `stats` holds the manager's instruments; they are registered only when
  // tiering is on, and the count accessors read 0 otherwise.
  DensityManager(const DensityConfig& config, KeepAlivePool* keep_alive,
                 FrameAllocator* frames, EventScheduler* scheduler,
                 const BackendRegistry* backends, obs::Registry& stats);
  DensityManager(const DensityManager&) = delete;
  DensityManager& operator=(const DensityManager&) = delete;

  bool enabled() const { return enabled_; }

  // --- Platform hooks (only called when enabled) ---------------------------

  // Arrival of an invocation for `fn`: feeds the traffic EWMA.
  void OnArrival(FunctionId fn, SimTime now);

  // An instance is about to be parked: stamp its footprint and reset it to
  // the DRAM-hot tier (its dirty pages are resident right after execution).
  // Must run before KeepAlivePool::Put so the pool's per-tier aggregates see
  // the fresh values. Also arms the background sweep.
  void OnPark(FunctionInstance& instance);

  // A parked instance was taken for reuse: promote it back to DRAM-hot,
  // paying the source tier's real fetch cost. Returns the attach latency the
  // invocation must wait (zero for DRAM-hot instances). Every warm take is
  // recorded in attach_ms() — the histogram the peak-density SLO gates on.
  SimDuration OnTake(FunctionInstance& instance);

  // A parked instance is being retired/evicted: release its swap block.
  // Leaves swapped_out_pages set so the engine's Retire frees only the
  // frames the instance still holds.
  void OnRetire(FunctionInstance& instance);

  // Node crash: walk the pool (before KeepAlivePool::Drop) and release every
  // swap block; pool contents are about to be discarded without teardown.
  void OnCrash();

  // Demotion storm: demote idle DRAM-hot instances LRU-first until node
  // frame usage drops to `target_bytes` or no candidates remain. Returns
  // bytes freed. Called from the platform's cap enforcement and from
  // injected pool-pressure windows.
  uint64_t RelievePressure(uint64_t target_bytes);

  // Pool-wide parked-footprint ceiling for the given effective cap.
  uint64_t OvercommitCeiling(uint64_t cap_bytes) const {
    return static_cast<uint64_t>(static_cast<double>(cap_bytes) * config_.overcommit_factor);
  }

  void NotePressureStorm();

  // --- Introspection --------------------------------------------------------

  const Histogram& attach_ms() const { return attach_ms_; }
  // Parked-instance count over virtual time for the given tier (peak +
  // timeline; sampled at every sweep and pressure storm).
  const TimeSeriesGauge& tier_timeline(DensityTier tier) const {
    return timeline_[static_cast<size_t>(tier)];
  }
  uint64_t demotions() const { return enabled_ ? demotions_->count() : 0; }
  uint64_t promotions() const { return enabled_ ? promotions_->count() : 0; }

 private:
  struct Traffic {
    double score = 0;
    SimTime last;
  };

  // Decayed traffic score of `fn` at `now` (read-only).
  double TrafficScore(FunctionId fn, SimTime now) const;

  // Moves `instance`'s dirty pages one rung down. Returns false if the
  // target backend is missing or full (the instance stays where it is).
  bool Demote(FunctionInstance& instance, DensityTier to);

  MemoryBackend* BackendForSwap(PoolKind kind) const;
  // Demotes the warm tier's coldest entries to NAS until `pages` fit in the
  // warm pool; false when the cascade cannot free enough.
  bool EvacuateWarm(uint64_t pages);

  void ArmSweep();
  void SweepNow();
  void UpdateGauges(SimTime now);

  bool enabled_ = false;
  DensityConfig config_;
  KeepAlivePool* keep_alive_;
  FrameAllocator* frames_;
  EventScheduler* scheduler_;
  MemoryBackend* warm_ = nullptr;
  MemoryBackend* cold_ = nullptr;

  std::vector<Traffic> traffic_;  // indexed by FunctionId; may be sparse
  bool sweep_armed_ = false;

  Histogram attach_ms_;
  TimeSeriesGauge timeline_[kDensityTierCount];

  // Registry instruments (owned by the platform's registry; null when the
  // manager is disabled): the only home of each count.
  obs::Counter* demotions_ = nullptr;
  obs::Counter* promotions_ = nullptr;
  obs::Counter* demoted_pages_ = nullptr;
  obs::Counter* promoted_pages_ = nullptr;
  obs::Counter* pressure_storms_ = nullptr;
  obs::Gauge* tier_count_gauges_[kDensityTierCount] = {};
  obs::Gauge* tier_bytes_gauges_[kDensityTierCount] = {};
};

}  // namespace trenv

#endif  // TRENV_DENSITY_DENSITY_MANAGER_H_
