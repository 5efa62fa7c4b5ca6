#include "src/shstate/region_manager.h"

#include <utility>

#include "src/common/cost_model.h"

namespace trenv {

namespace {
// Each worker's shared-region window VMA. Far above the sandbox layouts so
// tests mixing mms never collide; 4 GiB of window space is plenty for the
// simulated pipelines.
constexpr Vaddr kWindowVmaStart = 0x7f0000000000ULL;
constexpr uint64_t kWindowVmaBytes = 4ULL * kGiB;
// Window data-plane frames are never used (shared mappings stay remote); the
// allocator only exists to satisfy the fault handler's constructor contract.
constexpr uint64_t kScratchFrameBytes = 64ULL * kMiB;
}  // namespace

RegionManager::RegionManager(ShStateConfig config, uint32_t workers, TieredPool* pool,
                             const BackendRegistry* backends, EventScheduler* clock,
                             obs::Registry& stats)
    : config_(config),
      pool_(pool),
      backends_(backends),
      clock_(clock),
      frames_(kScratchFrameBytes),
      fault_handler_(&frames_, backends, &stats),
      next_window_(AddrToVpn(kWindowVmaStart)),
      regions_created_(stats.GetCounter("shstate.regions_created")),
      writes_(stats.GetCounter("shstate.writes")),
      reads_(stats.GetCounter("shstate.reads")),
      transfers_(stats.GetCounter("shstate.transfers")),
      migrations_(stats.GetCounter("shstate.migrations")),
      moved_bytes_(stats.GetCounter("shstate.moved_bytes")),
      pool_write_bytes_(stats.GetCounter("shstate.pool_write_bytes")),
      invalidations_(stats.GetCounter("shstate.invalidations")),
      lease_grants_(stats.GetCounter("shstate.lease_grants")),
      leases_expired_(stats.GetCounter("shstate.leases_expired")),
      ownership_recoveries_(stats.GetCounter("shstate.ownership_recoveries")) {
  if (config_.pool_nodes == 0) {
    config_.pool_nodes = 1;
  }
  mms_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    mms_.emplace_back();
    Status st = mms_.back().AddVma(MakeAnonVma(kWindowVmaStart, kWindowVmaBytes,
                                               Protection::ReadWrite(), "[shstate]"));
    (void)st;  // a fresh mm cannot have an overlapping VMA
  }
}

Result<RegionManager::Region*> RegionManager::Find(RegionId id) {
  if (id >= regions_.size() || !regions_[id].live) {
    return Status::NotFound("no such shared region");
  }
  return &regions_[id];
}

MemoryBackend* RegionManager::Backend(const Region& region) const {
  return backends_->Get(region.placement.kind);
}

bool RegionManager::ReaderMapped(RegionId id, uint32_t worker) const {
  const Region& region = regions_[id];
  return worker < region.readers.size() && region.readers[worker].mapped;
}

void RegionManager::MapOwner(Region& region, uint32_t worker) {
  PteFlags flags;
  flags.valid = true;
  flags.write_protected = false;
  flags.pool = region.placement.kind;
  flags.shared = true;
  flags.owner = true;
  mms_[worker].page_table().MapRange(region.window, region.npages, flags,
                                     region.placement.base,
                                     /*content_base=*/region.version << 20);
}

void RegionManager::MapReader(Region& region, uint32_t worker) {
  PteFlags flags;
  flags.valid = true;
  flags.write_protected = true;
  flags.pool = region.placement.kind;
  flags.shared = true;
  mms_[worker].page_table().MapRange(region.window, region.npages, flags,
                                     region.placement.base,
                                     /*content_base=*/region.version << 20);
}

void RegionManager::UnmapWindow(Region& region, uint32_t worker) {
  mms_[worker].page_table().UnmapRange(region.window, region.npages);
}

void RegionManager::DropReader(Region& region, uint32_t worker) {
  Reader& reader = region.readers[worker];
  if (reader.mapped) {
    UnmapWindow(region, worker);
    reader.mapped = false;
  }
  reader.lease.Drop();
}

Result<RegionId> RegionManager::CreateRegion(const std::string& name, uint64_t npages,
                                             uint32_t owner) {
  if (npages == 0 || owner >= mms_.size()) {
    return Status::InvalidArgument("bad region size or owner");
  }
  const Vpn window_end = next_window_ + npages;
  if (VpnToAddr(window_end) > kWindowVmaStart + kWindowVmaBytes) {
    return Status::ResourceExhausted("shared-region window space exhausted");
  }
  // Hotness 1.0: region bytes are live function state, so they land on the
  // hottest pool tier with space (CXL, falling through to RDMA/NAS).
  TRENV_ASSIGN_OR_RETURN(PoolPlacement placement, pool_->AllocatePages(npages, 1.0));
  if (placement.kind == PoolKind::kLocalDram) {
    // A shared region must be reachable from every node; local DRAM is not.
    Status st = pool_->FreePages(placement);
    (void)st;
    return Status::ResourceExhausted("no remote pool tier has space for the region");
  }
  Region region;
  region.name = name;
  region.npages = npages;
  region.placement = placement;
  region.window = next_window_;
  region.home = HomeOf(owner);
  region.owner = static_cast<int32_t>(owner);
  region.readers.resize(mms_.size());
  region.live = true;
  next_window_ = window_end;
  regions_.push_back(std::move(region));
  MapOwner(regions_.back(), owner);
  regions_created_->Increment();
  return static_cast<RegionId>(regions_.size() - 1);
}

SimDuration RegionManager::RevokeReaders(RegionId id, int32_t keep, SimTime now) {
  Region& region = regions_[id];
  SimDuration latency;
  for (uint32_t worker = 0; worker < region.readers.size(); ++worker) {
    Reader& reader = region.readers[worker];
    if (!reader.mapped || static_cast<int32_t>(worker) == keep) {
      continue;
    }
    reader.mapped = false;
    invalidations_->Increment();
    latency += cost::kShStateInvalidatePerReader;
    // The unmap itself lands asynchronously on the rack clock — modeled
    // after a TLB-shootdown IPI. The reader sees the revocation once the
    // event runs; its next ReadRegion re-maps and re-fetches.
    clock_->ScheduleAt(std::max(now, clock_->now()) + cost::kShStateInvalidatePerReader,
                       [this, id, worker] {
                         Region& r = regions_[id];
                         // Skip if the worker re-opened (mapped again) or took
                         // ownership since the shootdown was posted — its
                         // current mapping is live, not the revoked one.
                         if (!r.live || r.owner == static_cast<int32_t>(worker) ||
                             r.readers[worker].mapped) {
                           return;
                         }
                         UnmapWindow(r, worker);
                       });
  }
  return latency;
}

Result<RegionOp> RegionManager::WriteRegion(RegionId id, uint32_t worker, SimTime now) {
  TRENV_ASSIGN_OR_RETURN(Region * region, Find(id));
  if (region->owner != static_cast<int32_t>(worker)) {
    return Status::PermissionDenied("write requires region ownership");
  }
  // Single-writer coherence: a write while readers are mapped revokes them.
  RegionOp op;
  op.latency += RevokeReaders(id, static_cast<int32_t>(worker), now);
  TRENV_ASSIGN_OR_RETURN(
      BulkAccessStats stats,
      fault_handler_.AccessRange(mms_[worker], WindowAddr(*region), region->npages,
                                 /*write=*/true));
  op.latency += stats.latency;
  // The write-through path in the fault handler charges nothing (plain
  // stores); the data plane charges the bulk stream to the pool copy here —
  // symmetric with the fetch direction, same link.
  op.latency += Backend(*region)->FetchLatency(region->npages);
  region->version += 1;
  writes_->Increment();
  pool_write_bytes_->Add(static_cast<double>(region->npages * kPageSize));
  return op;
}

void RegionManager::GrantLease(RegionId id, uint32_t worker, SimTime now) {
  lease_grants_->Increment();
  // A poolmgr attach may already have run the rack clock past `now`; the
  // lease's check then lands at the clock, not behind it.
  trenv::GrantLease(
      *clock_, regions_[id].readers[worker].lease, now + config_.lease_ttl,
      [this, id, worker]() -> Lease& { return regions_[id].readers[worker].lease; },
      [this, id, worker] {
        DropReader(regions_[id], worker);
        leases_expired_->Increment();
      });
}

Result<RegionOp> RegionManager::OpenReader(RegionId id, uint32_t worker, SimTime now) {
  TRENV_ASSIGN_OR_RETURN(Region * region, Find(id));
  if (worker >= mms_.size()) {
    return Status::InvalidArgument("bad reader worker");
  }
  if (region->owner == static_cast<int32_t>(worker)) {
    return RegionOp{};  // the owner already maps the region writable
  }
  RegionOp op;
  op.latency = cost::kShStateMapMetadata;
  Reader& reader = region->readers[worker];
  if (!reader.mapped) {
    MapReader(*region, worker);
    reader.mapped = true;
  }
  GrantLease(id, worker, now);
  return op;
}

Result<RegionOp> RegionManager::ReadRegion(RegionId id, uint32_t worker, SimTime now) {
  TRENV_ASSIGN_OR_RETURN(Region * region, Find(id));
  if (worker >= mms_.size()) {
    return Status::InvalidArgument("bad reader worker");
  }
  MemoryBackend* backend = Backend(*region);
  if (backend == nullptr) {
    return Status::Internal("no backend for region tier");
  }
  RegionOp op;
  if (region->owner != static_cast<int32_t>(worker)) {
    if (!region->readers[worker].mapped) {
      // Fresh open or revoked/expired mapping: re-map (metadata) and stream
      // the region back in — the measurable cost of an invalidation.
      TRENV_ASSIGN_OR_RETURN(RegionOp open, OpenReader(id, worker, now));
      op.latency += open.latency + backend->FetchLatency(region->npages);
      refetch_bytes_ += region->npages * kPageSize;
    } else {
      GrantLease(id, worker, now);  // renew the window on use
      op.latency += backend->EffectiveDirectLoadLatency();
    }
  } else {
    op.latency += backend->EffectiveDirectLoadLatency();
  }
  TRENV_ASSIGN_OR_RETURN(
      BulkAccessStats stats,
      fault_handler_.AccessRange(mms_[worker], WindowAddr(*region), region->npages,
                                 /*write=*/false));
  op.latency += stats.latency;
  reads_->Increment();
  return op;
}

Result<RegionOp> RegionManager::MoveOwnership(RegionId id, uint32_t to, SimTime now) {
  Region& region = regions_[id];
  RegionOp op;
  op.latency += RevokeReaders(id, static_cast<int32_t>(to), now);
  if (region.owner >= 0 && region.owner != static_cast<int32_t>(to)) {
    UnmapWindow(region, static_cast<uint32_t>(region.owner));
  }
  // The new owner's reader mapping (if any) is replaced synchronously by the
  // owner mapping below; drop its reader lease.
  region.readers[to].mapped = false;
  region.readers[to].lease.Drop();
  op.latency += cost::kShStateOwnershipTransfer;
  const uint32_t to_home = HomeOf(to);
  if (to_home != region.home) {
    // Pool-to-pool migration: the payload streams between pool nodes over
    // the inter-pool link, never through a worker sandbox (the Nexus story).
    const uint64_t bytes = region.npages * kPageSize;
    op.moved_bytes += bytes;
    op.latency += SimDuration::FromSecondsF(static_cast<double>(bytes) /
                                            cost::kPoolToPoolBytesPerSec);
    region.home = to_home;
    migrations_->Increment();
    moved_bytes_->Add(static_cast<double>(bytes));
  }
  region.owner = static_cast<int32_t>(to);
  MapOwner(region, to);
  return op;
}

Result<RegionOp> RegionManager::Transfer(RegionId id, uint32_t from, uint32_t to,
                                         SimTime now) {
  TRENV_ASSIGN_OR_RETURN(Region * region, Find(id));
  if (region->owner != static_cast<int32_t>(from)) {
    return Status::PermissionDenied("transfer requires current ownership");
  }
  if (to >= mms_.size()) {
    return Status::InvalidArgument("bad transfer target");
  }
  if (from == to) {
    return RegionOp{};
  }
  TRENV_ASSIGN_OR_RETURN(RegionOp op, MoveOwnership(id, to, now));
  transfers_->Increment();
  return op;
}

Result<RegionOp> RegionManager::AcquireOwnership(RegionId id, uint32_t worker, SimTime now) {
  TRENV_ASSIGN_OR_RETURN(Region * region, Find(id));
  if (worker >= mms_.size()) {
    return Status::InvalidArgument("bad worker");
  }
  if (region->owner == static_cast<int32_t>(worker)) {
    return RegionOp{};
  }
  const bool recovery = region->owner < 0;
  TRENV_ASSIGN_OR_RETURN(RegionOp op, MoveOwnership(id, worker, now));
  if (recovery) {
    ownership_recoveries_->Increment();
  }
  return op;
}

Status RegionManager::DestroyRegion(RegionId id) {
  TRENV_ASSIGN_OR_RETURN(Region * region, Find(id));
  if (region->owner >= 0) {
    UnmapWindow(*region, static_cast<uint32_t>(region->owner));
  }
  for (uint32_t worker = 0; worker < region->readers.size(); ++worker) {
    DropReader(*region, worker);
  }
  region->owner = -1;
  region->live = false;
  return pool_->FreePages(region->placement);
}

void RegionManager::ReleaseWorker(uint32_t worker) {
  if (worker >= mms_.size()) {
    return;
  }
  for (RegionId id = 0; id < regions_.size(); ++id) {
    Region& region = regions_[id];
    if (!region.live) {
      continue;
    }
    if (region.owner == static_cast<int32_t>(worker)) {
      // The bytes are durable in the pool; ownership simply becomes vacant
      // until a surviving worker acquires it (lease-based recovery).
      UnmapWindow(region, worker);
      region.owner = -1;
    }
    DropReader(region, worker);
  }
}

}  // namespace trenv
