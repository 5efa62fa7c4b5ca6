// RegionManager: the shared-state data plane over the disaggregated pool.
//
// TrEnv's mm-templates share read-only *templates*; this module lets
// functions share *data* (ROADMAP item 5, Faasm/Nexus in PAPERS.md). A shared
// region is a named block of pool pages (allocated on the CXL/RDMA tiers via
// TieredPool) mapped into multiple sandboxes' PageTables with the shared /
// owner / dirty PTE bits:
//
//   * Single-writer / multi-reader ownership — exactly one worker holds
//     ownership (a valid + !wp + shared + owner mapping; stores write through
//     to the pool and set dirty). Any number of workers hold reader mappings
//     (valid + wp + shared; loads are direct remote, stores are refused by
//     the fault handler until an ownership upgrade).
//   * Explicit invalidation — an ownership upgrade or an owner write revokes
//     every reader mapping via invalidation events on the rack clock (the
//     Cluster-owned EventScheduler that poolmgr's leases also run on).
//     A revoked reader's next read re-maps the window and re-fetches the
//     pages, so coherence traffic is modeled and measurable.
//   * Leases — cross-node readers hold TTL leases, the scheme poolmgr's
//     template leases use (src/sim/lease.h): each open or read moves the
//     deadline forward, and one expiry check per reader is pending on the
//     rack clock. An expired reader is unmapped and re-opens on next use. A
//     worker crash drops its leases and releases any ownership it held; the
//     region bytes are durable in the pool, so recovery is lease-based with
//     no data loss.
//   * I/O offload channel (Nexus-style) — Transfer() hands a region from a
//     producer to a consumer by ownership transfer: metadata-only when both
//     workers' pool homes match, a pool-to-pool page migration otherwise.
//     Payloads never round-trip through a worker sandbox.
//
// Everything is deterministic: regions are iterated by id, readers in worker
// order, and all latencies derive from src/common/cost_model.h plus the
// backends' seeded models.
#ifndef TRENV_SHSTATE_REGION_MANAGER_H_
#define TRENV_SHSTATE_REGION_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/mempool/tiered_pool.h"
#include "src/obs/registry.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/lease.h"
#include "src/simkernel/fault_handler.h"
#include "src/simkernel/frame_allocator.h"
#include "src/simkernel/mm_struct.h"

namespace trenv {

struct ShStateConfig {
  // false builds no data plane at all — the bit-identical default.
  bool enabled = false;
  // Pool-side homes for region bytes; worker w's home is w % pool_nodes.
  uint32_t pool_nodes = 4;
  // Reader lease TTL: each OpenReader/ReadRegion moves the reader's
  // deadline to at least its time plus this.
  SimDuration lease_ttl = SimDuration::Seconds(60);
};

using RegionId = uint32_t;
inline constexpr RegionId kInvalidRegionId = 0xFFFFFFFFu;

// Outcome of one data-plane operation: the virtual latency the caller should
// charge, and the data-plane bytes the operation moved between pool nodes
// (the headline "bytes moved" metric — metadata-only ops report zero).
struct RegionOp {
  SimDuration latency;
  uint64_t moved_bytes = 0;
};

class RegionManager {
 public:
  // `pool` places region pages (not owned); `backends` resolves their tier's
  // latency model; `clock` is the rack clock that shootdowns and lease
  // expiries run on (not owned); `stats` holds the plane's counters, which
  // the accessors below read.
  RegionManager(ShStateConfig config, uint32_t workers, TieredPool* pool,
                const BackendRegistry* backends, EventScheduler* clock, obs::Registry& stats);
  RegionManager(const RegionManager&) = delete;
  RegionManager& operator=(const RegionManager&) = delete;

  // The rack clock the plane schedules on; the Cluster advances it in
  // lock-step with the worker-node schedulers and drains it at end of run.
  EventScheduler& clock() { return *clock_; }

  uint32_t HomeOf(uint32_t worker) const { return worker % config_.pool_nodes; }

  // Allocates a named region of `npages` on the pool and maps it into the
  // owner's window (valid + !wp + shared + owner); costs kShStateMapMetadata.
  [[nodiscard]] Result<RegionId> CreateRegion(const std::string& name, uint64_t npages,
                                              uint32_t owner);

  // Owner writes the whole region: write-through stores via the fault
  // handler's shared-owner path (sets dirty) plus invalidation of every
  // currently mapped reader (single-writer coherence).
  [[nodiscard]] Result<RegionOp> WriteRegion(RegionId id, uint32_t worker, SimTime now);

  // Maps a reader window (valid + wp + shared) and grants/renews a lease.
  // Metadata-only; the first ReadRegion pays the fetch.
  [[nodiscard]] Result<RegionOp> OpenReader(RegionId id, uint32_t worker, SimTime now);

  // Reads the whole region. A fresh or invalidated mapping pays the tier's
  // bulk fetch latency (re-fetch after revocation); a warm mapping pays one
  // direct remote load. Renews the reader's lease window.
  [[nodiscard]] Result<RegionOp> ReadRegion(RegionId id, uint32_t worker, SimTime now);

  // Nexus-style handoff: `from` (the current owner) hands the region to
  // `to`. Revokes readers, then transfers ownership — metadata-only when
  // both workers share a pool home, a pool-to-pool page migration otherwise.
  [[nodiscard]] Result<RegionOp> Transfer(RegionId id, uint32_t from, uint32_t to,
                                          SimTime now);

  // Ownership upgrade for a worker that is not the owner (e.g. a fan-in
  // stage writing back into a region it was reading). Same cost model as
  // Transfer, but callable when ownership is vacant (post-crash recovery).
  [[nodiscard]] Result<RegionOp> AcquireOwnership(RegionId id, uint32_t worker, SimTime now);

  // Frees the region's pool pages and unmaps every window.
  [[nodiscard]] Status DestroyRegion(RegionId id);

  // Crash wiring: drops the worker's leases and reader mappings and releases
  // any ownership it held. Region bytes survive in the pool — the next
  // AcquireOwnership on a surviving worker recovers the region.
  void ReleaseWorker(uint32_t worker);

  // --- introspection ---------------------------------------------------------
  size_t region_count() const { return regions_.size(); }
  int32_t OwnerOf(RegionId id) const { return regions_[id].owner; }
  uint32_t HomeNodeOf(RegionId id) const { return regions_[id].home; }
  uint64_t RegionVersion(RegionId id) const { return regions_[id].version; }
  Vpn WindowOf(RegionId id) const { return regions_[id].window; }
  bool ReaderMapped(RegionId id, uint32_t worker) const;
  // The worker-side mm (for tests asserting PTE states).
  const MmStruct& worker_mm(uint32_t worker) const { return mms_[worker]; }

  // --- accounting ------------------------------------------------------------
  uint64_t transfers() const { return transfers_->count(); }
  uint64_t migrations() const { return migrations_->count(); }
  uint64_t moved_bytes() const { return moved_bytes_->count(); }  // pool-to-pool
  uint64_t pool_write_bytes() const { return pool_write_bytes_->count(); }
  uint64_t refetch_bytes() const { return refetch_bytes_; }
  uint64_t invalidations() const { return invalidations_->count(); }
  uint64_t lease_grants() const { return lease_grants_->count(); }
  uint64_t leases_expired() const { return leases_expired_->count(); }
  uint64_t ownership_recoveries() const { return ownership_recoveries_->count(); }

 private:
  struct Reader {
    bool mapped = false;
    Lease lease;
  };
  struct Region {
    std::string name;
    uint64_t npages = 0;
    PoolPlacement placement;
    Vpn window = 0;      // same window vpn in every worker's address space
    uint32_t home = 0;   // pool node currently holding the bytes
    int32_t owner = -1;  // worker holding write ownership; -1 = vacant
    uint64_t version = 0;
    // Indexed by worker. A dropped reader keeps its slot, so its pending
    // lease check still finds it.
    std::vector<Reader> readers;
    bool live = false;
  };

  Result<Region*> Find(RegionId id);
  MemoryBackend* Backend(const Region& region) const;
  Vaddr WindowAddr(const Region& region) const { return VpnToAddr(region.window); }
  void MapOwner(Region& region, uint32_t worker);
  void MapReader(Region& region, uint32_t worker);
  void UnmapWindow(Region& region, uint32_t worker);
  // Unmaps the worker's reader window if it is mapped and drops its lease.
  void DropReader(Region& region, uint32_t worker);
  // Schedules invalidation events for every mapped reader (except `keep`,
  // the upgrading worker, whose window is replaced synchronously) and
  // returns the coherence latency the mutator pays.
  SimDuration RevokeReaders(RegionId id, int32_t keep, SimTime now);
  // Ownership movement shared by Transfer / AcquireOwnership.
  Result<RegionOp> MoveOwnership(RegionId id, uint32_t to, SimTime now);
  void GrantLease(RegionId id, uint32_t worker, SimTime now);

  ShStateConfig config_;
  TieredPool* pool_;
  const BackendRegistry* backends_;
  EventScheduler* clock_;

  // One address space per worker holding the shared-region windows. Shared
  // mappings never allocate local frames, but the fault handler needs an
  // allocator for its unpopulated-gap path (which our ops never hit).
  FrameAllocator frames_;
  FaultHandler fault_handler_;
  std::vector<MmStruct> mms_;
  Vpn next_window_;

  std::vector<Region> regions_;

  // Re-fetch traffic after revocation; no registry instrument counts it.
  uint64_t refetch_bytes_ = 0;

  // Registry instruments: the only home of each count.
  obs::Counter* regions_created_;
  obs::Counter* writes_;
  obs::Counter* reads_;
  obs::Counter* transfers_;
  obs::Counter* migrations_;
  obs::Counter* moved_bytes_;
  obs::Counter* pool_write_bytes_;
  obs::Counter* invalidations_;
  obs::Counter* lease_grants_;
  obs::Counter* leases_expired_;
  obs::Counter* ownership_recoveries_;
};

}  // namespace trenv

#endif  // TRENV_SHSTATE_REGION_MANAGER_H_
