#include "src/simkernel/fault_handler.h"

#include <vector>

#include "src/common/cost_model.h"
#include "src/common/rng.h"

namespace trenv {

FaultHandler::FaultHandler(FrameAllocator* frames, const BackendRegistry* backends,
                           obs::Registry* stats, PageTouchObserver* observer)
    : frames_(frames), backends_(backends), stats_(stats), observer_(observer) {
  if (stats != nullptr) {
    minor_ = stats->GetCounter("faults.minor");
    major_ = stats->GetCounter("faults.major");
    cow_ = stats->GetCounter("faults.cow");
    fetched_bytes_ = stats->GetCounter("fetch.bytes");
    direct_remote_ = stats->GetCounter("reads.direct_remote");
    direct_local_ = stats->GetCounter("reads.direct_local");
  }
}

void FaultHandler::Count(const BulkAccessStats& stats) {
  if (minor_ == nullptr) {
    return;
  }
  const auto add = [](obs::Counter* counter, uint64_t delta) {
    if (delta != 0) {
      counter->Add(static_cast<double>(delta));
    }
  };
  add(minor_, stats.minor_faults);
  add(major_, stats.major_faults);
  add(cow_, stats.cow_faults);
  add(fetched_bytes_, stats.bytes_fetched);
  add(direct_remote_, stats.direct_remote);
  add(direct_local_, stats.direct_local);
}

void BulkAccessStats::MergeFrom(const BulkAccessStats& other) {
  pages += other.pages;
  direct_local += other.direct_local;
  direct_remote += other.direct_remote;
  minor_faults += other.minor_faults;
  major_faults += other.major_faults;
  cow_faults += other.cow_faults;
  bytes_fetched += other.bytes_fetched;
  new_local_pages += other.new_local_pages;
  latency += other.latency;
  fetch_cpu += other.fetch_cpu;
}

template <typename NextContent>
Result<BulkAccessStats> FaultHandler::Touch(MmStruct& mm, Vaddr addr, uint64_t npages,
                                            bool write, NextContent next_content) {
  BulkAccessStats stats;
  if (npages == 0) {
    return stats;
  }
  const Vpn first_vpn = AddrToVpn(addr);
  const Vpn range_end = first_vpn + npages;
  const Vma* vma = mm.FindVma(addr);
  if (vma == nullptr) {
    return Status::PermissionDenied("segfault: no VMA maps this address");
  }
  if (mm.FindVma(VpnToAddr(range_end) - 1) != vma) {
    return Status::InvalidArgument("range must lie within a single VMA");
  }
  if (write && !vma->prot.write) {
    return Status::PermissionDenied("segfault: write to read-only VMA " + vma->name);
  }
  if (!write && !vma->prot.read) {
    return Status::PermissionDenied("segfault: read from non-readable VMA " + vma->name);
  }
  if (observer_ != nullptr) {
    observer_->OnTouch(mm, first_vpn, npages);
  }

  // Snapshot the runs (the loop below mutates the table) into the reusable
  // per-handler scratch buffer: steady state performs no allocation here.
  std::vector<Segment>& segments = segments_scratch_;
  segments.clear();
  mm.page_table().ForEachRunIn(first_vpn, npages, [&](Vpn vpn, const PteRun& run) {
    segments.push_back({vpn, run});
  });

  // The backend serving a remote run. A run that names an unregistered pool
  // is a wiring error, never a silently free fetch.
  auto backend_of = [&](const PteRun& run) -> Result<MemoryBackend*> {
    MemoryBackend* backend = backends_->Get(run.flags.pool);
    if (backend == nullptr) {
      return Status::Internal("no backend registered for pool");
    }
    return backend;
  };

  Vpn cursor = first_vpn;
  auto handle_gap = [&](Vpn gap_start, uint64_t gap_pages) -> Status {
    if (gap_pages == 0) {
      return Status::Ok();
    }
    // Unpopulated: bulk zero-fill minor faults.
    TRENV_ASSIGN_OR_RETURN(FrameId frame, frames_->AllocatePages(gap_pages));
    PteFlags flags;
    flags.valid = true;
    flags.write_protected = !vma->prot.write;
    flags.pool = PoolKind::kLocalDram;
    if (write) {
      mm.page_table().MapRange(gap_start, gap_pages, flags, frame, next_content());
    } else {
      mm.page_table().MapRange(gap_start, gap_pages, flags, frame, kZeroPageContent,
                               /*constant_content=*/true);
    }
    stats.minor_faults += gap_pages;
    stats.new_local_pages += gap_pages;
    stats.latency += cost::kMinorFault * static_cast<double>(gap_pages);
    return Status::Ok();
  };

  for (const Segment& seg : segments) {
    if (seg.vpn > cursor) {
      TRENV_RETURN_IF_ERROR(handle_gap(cursor, seg.vpn - cursor));
    }
    const uint64_t n = seg.run.npages;
    const PteRun& run = seg.run;
    if (!run.flags.valid) {
      // Lazy remote run (RDMA/NAS): bulk major faults fetch the pages and
      // install private local copies, writable per the VMA.
      TRENV_ASSIGN_OR_RETURN(MemoryBackend * backend, backend_of(run));
      TRENV_ASSIGN_OR_RETURN(FrameId frame, frames_->AllocatePages(n));
      PteFlags flags;
      flags.valid = true;
      flags.write_protected = !vma->prot.write;
      flags.pool = PoolKind::kLocalDram;
      PageContent content = run.content_base;
      bool constant = run.constant_content;
      if (write) {
        content = next_content();
        constant = false;
      }
      mm.page_table().MapRange(seg.vpn, n, flags, frame, content, constant);
      stats.major_faults += n;
      stats.new_local_pages += n;
      stats.bytes_fetched += n * kPageSize;
      stats.latency += cost::kMajorFaultEntry * static_cast<double>(n) + backend->FetchLatency(n);
      stats.fetch_cpu += backend->FetchCpuPerPage() * static_cast<double>(n);
    } else if (!write) {
      if (run.flags.remote()) {
        // Direct CXL loads: no fault, no latency charged here; the execution
        // model accounts the load-latency slowdown in aggregate.
        stats.direct_remote += n;
      } else {
        stats.direct_local += n;
      }
    } else if (run.flags.write_protected && run.flags.shared) {
      // Reader mapping of a shared region. CoW would fork the shared data
      // into a private copy, so the write is refused until shstate upgrades
      // this sandbox to owner (which revokes the other readers).
      return Status::PermissionDenied(
          "write to shared region reader mapping requires ownership upgrade");
    } else if (run.flags.write_protected) {
      // Bulk CoW: copy to fresh local frames and install writable PTEs; the
      // shared original (e.g. in the CXL pool) is untouched (paper 5.1).
      MemoryBackend* backend = nullptr;
      if (run.flags.remote()) {
        TRENV_ASSIGN_OR_RETURN(backend, backend_of(run));
      }
      TRENV_ASSIGN_OR_RETURN(FrameId frame, frames_->AllocatePages(n));
      PteFlags flags;
      flags.valid = true;
      flags.write_protected = false;
      flags.pool = PoolKind::kLocalDram;
      mm.page_table().MapRange(seg.vpn, n, flags, frame, next_content());
      stats.cow_faults += n;
      stats.new_local_pages += n;
      stats.latency += cost::kCowFault * static_cast<double>(n);
      if (backend != nullptr) {
        stats.latency += backend->FetchLatency(n);
        stats.bytes_fetched += n * kPageSize;
      }
    } else if (run.flags.shared && run.flags.remote()) {
      // Owner mapping of a shared region: bulk write-through to the pool
      // copy (byte-addressable CXL / RDMA), marked dirty. Like direct remote
      // reads, no latency is charged here; shstate accounts the pool write
      // bytes, the execution model the load slowdown.
      TRENV_RETURN_IF_ERROR(backend_of(run).status());
      PteFlags flags = run.flags;
      flags.dirty = true;
      mm.page_table().MapRange(seg.vpn, n, flags, run.backing_base, next_content());
      stats.direct_remote += n;
    } else {
      // Direct local writes: refresh content in place.
      mm.page_table().MapRange(seg.vpn, n, run.flags, run.backing_base, next_content());
      stats.direct_local += n;
    }
    cursor = seg.vpn + n;
  }
  if (cursor < range_end) {
    TRENV_RETURN_IF_ERROR(handle_gap(cursor, range_end - cursor));
  }
  stats.pages = npages;
  Count(stats);
  return stats;
}

Result<AccessOutcome> FaultHandler::Access(MmStruct& mm, Vaddr addr, bool write,
                                           PageContent new_content) {
  const Vpn vpn = AddrToVpn(addr);
  TRENV_ASSIGN_OR_RETURN(
      BulkAccessStats stats,
      Touch(mm, VpnToAddr(vpn), 1, write, [new_content] { return new_content; }));
  const PteView pte = *mm.page_table().Lookup(vpn);
  AccessOutcome outcome;
  outcome.latency = stats.latency;
  outcome.content = pte.content;
  if (stats.minor_faults > 0) {
    outcome.kind = AccessKind::kMinorFault;
  } else if (stats.major_faults > 0) {
    outcome.kind = AccessKind::kMajorFault;
  } else if (stats.cow_faults > 0) {
    outcome.kind = AccessKind::kCowFault;
  } else if (stats.direct_remote > 0) {
    // A CXL load, or an owner's write-through to the pool copy.
    MemoryBackend* backend = backends_->Get(pte.flags.pool);
    if (backend == nullptr) {
      return Status::Internal("no backend registered for pool");
    }
    outcome.kind = AccessKind::kDirectRemote;
    outcome.latency += backend->EffectiveDirectLoadLatency();
  } else {
    outcome.kind = AccessKind::kDirectLocal;
    outcome.latency += cost::kLocalDramLatency;
  }
  return outcome;
}

Result<PageContent> FaultHandler::ReadPage(MmStruct& mm, Vaddr addr) {
  TRENV_ASSIGN_OR_RETURN(AccessOutcome outcome, Access(mm, addr, /*write=*/false));
  return outcome.content;
}

Status FaultHandler::WritePage(MmStruct& mm, Vaddr addr, PageContent content) {
  return Access(mm, addr, /*write=*/true, content).status();
}

Result<BulkAccessStats> FaultHandler::AccessRange(MmStruct& mm, Vaddr addr, uint64_t npages,
                                                  bool write) {
  return Touch(mm, addr, npages, write, [this] { return MixU64(write_seed_++); });
}

}  // namespace trenv
