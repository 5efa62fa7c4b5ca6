#include "src/mempool/backend.h"

#include <algorithm>
#include <cassert>

#include "src/common/cost_model.h"
#include "src/fault/fault_injector.h"
#include "src/fault/retry_policy.h"

namespace trenv {

size_t ContentMap::FirstOverlapping(PoolOffset page) const {
  const size_t hint = lookup_hint_.load(std::memory_order_relaxed);
  if (hint < runs_.size() && runs_[hint].base <= page &&
      page < runs_[hint].base + runs_[hint].npages) {
    return hint;
  }
  const size_t i = static_cast<size_t>(
      std::upper_bound(runs_.begin(), runs_.end(), page,
                       [](PoolOffset p, const Run& r) { return p < r.base; }) -
      runs_.begin());
  if (i > 0 && runs_[i - 1].base + runs_[i - 1].npages > page) {
    return i - 1;
  }
  return i;
}

void ContentMap::SpliceWindow(size_t lo, size_t hi, const Run* repl, size_t count) {
  const size_t old_count = hi - lo;
  const size_t common = std::min(old_count, count);
  std::copy(repl, repl + common, runs_.begin() + static_cast<ptrdiff_t>(lo));
  if (count > old_count) {
    runs_.insert(runs_.begin() + static_cast<ptrdiff_t>(hi), repl + common, repl + count);
  } else if (old_count > count) {
    runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(lo + count),
                runs_.begin() + static_cast<ptrdiff_t>(hi));
  }
  lookup_hint_.store(lo, std::memory_order_relaxed);
}

void ContentMap::Write(PoolOffset page, uint64_t npages, PageContent content_base) {
  if (npages == 0) {
    return;
  }
  const PoolOffset end = page + npages;
  const size_t lo = FirstOverlapping(page);
  size_t hi = lo;
  while (hi < runs_.size() && runs_[hi].base < end) {
    ++hi;
  }
  Run repl[3];
  size_t count = 0;
  if (lo < hi) {
    const Run& first = runs_[lo];
    if (first.base < page) {
      repl[count++] = Run{first.base, page - first.base, first.content_base};
    }
  }
  repl[count++] = Run{page, npages, content_base};
  if (lo < hi) {
    const Run& last = runs_[hi - 1];
    const PoolOffset last_end = last.base + last.npages;
    if (last_end > end) {
      repl[count++] = Run{end, last_end - end, last.content_base + (end - last.base)};
    }
  }
  SpliceWindow(lo, hi, repl, count);
}

Result<PageContent> ContentMap::Read(PoolOffset page) const {
  const size_t i = FirstOverlapping(page);
  if (i >= runs_.size() || runs_[i].base > page) {
    return Status::NotFound("no content stored at pool offset");
  }
  lookup_hint_.store(i, std::memory_order_relaxed);
  return runs_[i].content_base + (page - runs_[i].base);
}

void ContentMap::Erase(PoolOffset page, uint64_t npages) {
  if (npages == 0) {
    return;
  }
  const PoolOffset end = page + npages;
  const size_t lo = FirstOverlapping(page);
  size_t hi = lo;
  while (hi < runs_.size() && runs_[hi].base < end) {
    ++hi;
  }
  if (lo == hi) {
    return;
  }
  Run repl[2];
  size_t count = 0;
  const Run& first = runs_[lo];
  if (first.base < page) {
    repl[count++] = Run{first.base, page - first.base, first.content_base};
  }
  const Run& last = runs_[hi - 1];
  const PoolOffset last_end = last.base + last.npages;
  if (last_end > end) {
    repl[count++] = Run{end, last_end - end, last.content_base + (end - last.base)};
  }
  SpliceWindow(lo, hi, repl, count);
}

uint64_t ContentMap::stored_pages() const {
  uint64_t total = 0;
  for (const Run& run : runs_) {
    total += run.npages;
  }
  return total;
}

template <typename ComputeFn>
SimDuration MemoryBackend::FetchThroughFaults(uint64_t npages, ComputeFn&& compute) {
  if (injector_ == nullptr || !injector_->Active() || npages == 0) {
    return compute();
  }
  // Chaos path: each attempt may flap (costs a timeout, then backoff + retry)
  // or deliver a corrupted payload (full transfer latency wasted — the
  // receiver's checksum rejects it — then refetch). The loop is fail-open:
  // once attempts or the deadline are exhausted the fabric is assumed to
  // deliver, so injected faults degrade latency but never lose pages.
  SimDuration overhead;
  for (uint32_t attempt = 0;; ++attempt) {
    const FaultInjector::FetchFault fault =
        injector_->OnFetchAttempt(kind(), active_streams());
    const SimDuration transfer = compute() * fault.latency_multiplier;
    if (!fault.fail && !fault.corrupt) {
      return overhead + transfer;
    }
    if (fault.corrupt) {
      injector_->CountCorrupt();
      overhead += transfer;  // the bad payload crossed the wire before the check caught it
    } else {
      overhead += cost::kRetryAttemptTimeout;
    }
    if (attempt + 1 >= cost::kRetryMaxAttempts || overhead >= cost::kRetryDeadline) {
      injector_->CountExhausted();
      return overhead + compute() * fault.latency_multiplier;
    }
    overhead += BackoffFor(attempt + 1);
    injector_->CountRetry();
  }
}

SimDuration MemoryBackend::FetchLatency(uint64_t npages) {
  if (npages > 0 && fetch_ops_ != nullptr) {
    fetch_ops_->Increment();
    fetch_pages_->Add(static_cast<double>(npages));
  }
  return FetchThroughFaults(npages, [&] { return ComputeFetchLatency(npages); });
}

SimDuration MemoryBackend::BulkFetchLatency(uint64_t nruns, uint64_t npages) {
  if (npages > 0 && fetch_ops_ != nullptr) {
    fetch_ops_->Increment();
    fetch_pages_->Add(static_cast<double>(npages));
    bulk_ops_->Increment();
    bulk_runs_->Add(static_cast<double>(nruns));
  }
  return FetchThroughFaults(npages,
                            [&] { return ComputeBulkFetchLatency(nruns, npages); });
}

SimDuration MemoryBackend::ComputeBulkFetchLatency(uint64_t nruns, uint64_t npages) {
  SimDuration latency = ComputeFetchLatency(npages);
  if (nruns > 1) {
    latency += cost::kBulkFetchPerRun * static_cast<double>(nruns - 1);
  }
  return latency;
}

SimDuration MemoryBackend::EffectiveDirectLoadLatency() const {
  const SimDuration base = DirectLoadLatency();
  if (injector_ == nullptr || !injector_->Active()) {
    return base;
  }
  return base * injector_->DirectLoadMultiplier(kind());
}

void MemoryBackend::BindStats(obs::Registry* stats) {
  if (stats == nullptr) {
    fetch_ops_ = nullptr;
    fetch_pages_ = nullptr;
    bulk_ops_ = nullptr;
    bulk_runs_ = nullptr;
    return;
  }
  const std::string prefix = "pool." + std::string(name());
  fetch_ops_ = stats->GetCounter(prefix + ".fetch_ops");
  fetch_pages_ = stats->GetCounter(prefix + ".fetch_pages");
  bulk_ops_ = stats->GetCounter(prefix + ".bulk_fetch_ops");
  bulk_runs_ = stats->GetCounter(prefix + ".bulk_fetch_runs");
}

Status MemoryBackend::FreePages(PoolOffset base, uint64_t n) {
  TRENV_RETURN_IF_ERROR(allocator_.Free(base, n));
  content_.Erase(base, n);
  return Status::Ok();
}

Status MemoryBackend::WriteContent(PoolOffset page, uint64_t npages, PageContent content_base) {
  content_.Write(page, npages, content_base);
  return Status::Ok();
}

void BackendRegistry::Register(MemoryBackend* backend) {
  assert(backend != nullptr);
  backends_[static_cast<size_t>(backend->kind())] = backend;
}

}  // namespace trenv
