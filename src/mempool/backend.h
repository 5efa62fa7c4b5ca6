// MemoryBackend: the abstract interface every disaggregated-memory tier
// implements (paper section 5.1: "mm-template supports various memory pool
// backends including CXL and RDMA").
//
// A backend owns a page-granular address space, remembers the logical content
// stored in it, and models the latency of reaching it — both the fault-path
// fetch (RDMA/NAS) and the direct byte-addressable load (CXL).
#ifndef TRENV_MEMPOOL_BACKEND_H_
#define TRENV_MEMPOOL_BACKEND_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/mempool/block_allocator.h"
#include "src/obs/registry.h"
#include "src/simkernel/types.h"

namespace trenv {

class FaultInjector;

// Remembers logical page contents stored into a pool, run-compressed the same
// way the page table is (content of page base+i is content_base+i). Backed by
// a sorted vector of runs: reads are a hinted binary search, writes and
// erases splice the affected window in one pass, so the chunk-churn the
// keep-alive pool drives performs no per-run node allocations. Semantics are
// bit-identical to the original std::map store (runs are never merged;
// pinned by tests/flat_store_equivalence_test.cc).
class ContentMap {
 public:
  void Write(PoolOffset page, uint64_t npages, PageContent content_base);
  Result<PageContent> Read(PoolOffset page) const;
  void Erase(PoolOffset page, uint64_t npages);
  uint64_t stored_pages() const;
  uint64_t run_count() const { return runs_.size(); }
  // Invokes fn(base, npages, content_base) for every run in offset order
  // (diagnostics and the store-equivalence test).
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    for (const Run& run : runs_) {
      fn(run.base, run.npages, run.content_base);
    }
  }

 private:
  struct Run {
    PoolOffset base;
    uint64_t npages;
    PageContent content_base;
  };
  // Index of the first run whose end lies past `page`; runs_.size() if none.
  size_t FirstOverlapping(PoolOffset page) const;
  // Replaces runs_[lo, hi) with repl[0, count).
  void SpliceWindow(size_t lo, size_t hi, const Run* repl, size_t count);

  // Runs sorted by base, pairwise disjoint.
  std::vector<Run> runs_;
  // Search-start memo, not semantics: a stale or torn hint only costs a
  // binary search. Relaxed-atomic because const reads on the SHARED pool's
  // content map run concurrently from per-shard drains in a sharded cluster
  // run (writes stay coordinator-serial).
  mutable std::atomic<size_t> lookup_hint_{0};
};

class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;

  virtual PoolKind kind() const = 0;
  virtual std::string_view name() const = 0;
  // True if CPUs can issue loads directly against the pool (CXL).
  virtual bool byte_addressable() const = 0;

  uint64_t capacity_bytes() const { return allocator_.total_pages() * kPageSize; }
  uint64_t used_bytes() const { return allocator_.used_pages() * kPageSize; }
  uint64_t free_pages() const { return allocator_.free_pages(); }

  // Block management.
  [[nodiscard]] Result<PoolOffset> AllocatePages(uint64_t n) { return allocator_.Allocate(n); }
  [[nodiscard]] Status FreePages(PoolOffset base, uint64_t n);

  // Content store.
  [[nodiscard]] Status WriteContent(PoolOffset page, uint64_t npages, PageContent content_base);
  Result<PageContent> ReadContent(PoolOffset page) const { return content_.Read(page); }
  uint64_t stored_pages() const { return content_.stored_pages(); }

  // Fault-path fetch of n pages (RDMA read, NAS block I/O, or a memcpy out of
  // a byte-addressable pool). Includes fabric contention effects and, when a
  // FaultInjector is bound, injected flaps/stalls/corruption with retry +
  // capped exponential backoff charged in virtual time. Counts into the
  // stats registry bound with BindStats, if any.
  SimDuration FetchLatency(uint64_t npages);
  // Planned bulk fetch of `npages` spread over `nruns` page runs, issued as
  // one scatter-gather operation (working-set prefetch). The base round trip
  // is paid once and amortized across the whole batch — far cheaper than
  // `nruns` separate FetchLatency calls — with a per-run descriptor cost for
  // fragmentation. Runs through the same FaultInjector/fetch-retry chaos
  // loop as FetchLatency and counts into the bound stats.
  SimDuration BulkFetchLatency(uint64_t nruns, uint64_t npages);
  // Binds "pool.<name>.fetch_ops" / "pool.<name>.fetch_pages" counters so
  // every fetch through this tier shows up in telemetry dumps.
  void BindStats(obs::Registry* stats);
  // Attaches the rack's fault injector; nullptr detaches. With no injector
  // (or an idle one) fetch latencies are bit-identical to the fault-free
  // model.
  void BindFaultInjector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }
  // Per-load latency for direct access; only meaningful if byte_addressable().
  virtual SimDuration DirectLoadLatency() const = 0;
  // DirectLoadLatency scaled by any active CXL port-degrade fault window.
  SimDuration EffectiveDirectLoadLatency() const;
  // CPU time the host burns per fetched page (e.g. RDMA completion handling);
  // zero for byte-addressable pools.
  virtual SimDuration FetchCpuPerPage() const { return SimDuration::Zero(); }

  // Load tracking: engines bracket an invocation's lazy-fetch window so the
  // pool can model contention (RDMA's P99 cliff under bursts).
  virtual void BeginStream() {}
  virtual void EndStream() {}
  virtual uint32_t active_streams() const { return 0; }

 protected:
  explicit MemoryBackend(uint64_t capacity_bytes)
      : allocator_(capacity_bytes / kPageSize) {}

  // The pool-specific latency model behind FetchLatency.
  virtual SimDuration ComputeFetchLatency(uint64_t npages) = 0;
  // The model behind BulkFetchLatency. The default charges the plain fetch
  // model plus one descriptor per extra run; pools with a real scatter-gather
  // fast path (RDMA) override it with an amortizing stream model.
  virtual SimDuration ComputeBulkFetchLatency(uint64_t nruns, uint64_t npages);

 private:
  // Shared chaos loop: `compute()` yields one attempt's transfer latency.
  template <typename ComputeFn>
  SimDuration FetchThroughFaults(uint64_t npages, ComputeFn&& compute);

  BlockAllocator allocator_;
  ContentMap content_;
  FaultInjector* injector_ = nullptr;
  obs::Counter* fetch_ops_ = nullptr;
  obs::Counter* fetch_pages_ = nullptr;
  obs::Counter* bulk_ops_ = nullptr;
  obs::Counter* bulk_runs_ = nullptr;
};

// Maps PoolKind -> backend for the fault handler. Does not own the backends.
class BackendRegistry {
 public:
  void Register(MemoryBackend* backend);
  // Null for a kind nothing registered.
  MemoryBackend* Get(PoolKind kind) const { return backends_[static_cast<size_t>(kind)]; }

 private:
  std::array<MemoryBackend*, kPoolKindCount> backends_{};
};

}  // namespace trenv

#endif  // TRENV_MEMPOOL_BACKEND_H_
