// First-fit page-granular block allocator with free-list coalescing.
// Manages the address space of a memory pool; consolidated snapshot images
// are placed through this allocator.
//
// The free list is a sorted vector of extents rather than a node-based map:
// Allocate shrinks the chosen extent in place (no erase + reinsert), and
// Free either extends a neighboring extent in place or inserts one record.
// The keep-alive churn pattern — free a block, reallocate the same size —
// therefore runs allocation-free at steady state. Placement decisions are
// bit-identical to the original std::map free list (first fit from the
// lowest base; pinned by tests/flat_store_equivalence_test.cc).
//
// A request larger than every free extent fails without a scan: the
// allocator keeps an upper bound on its largest free extent. A full pool's
// retries (density re-demoting into a full tier every sweep) would otherwise
// walk the whole free list on each failure. A failed allocation changes no
// state, so the bound changes no placement and no failure.
#ifndef TRENV_MEMPOOL_BLOCK_ALLOCATOR_H_
#define TRENV_MEMPOOL_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/simkernel/types.h"

namespace trenv {

class BlockAllocator {
 public:
  explicit BlockAllocator(uint64_t total_pages);

  // Allocates n contiguous pages; returns the base page offset.
  Result<PoolOffset> Allocate(uint64_t n);
  // Frees a previously allocated block (must match an allocation exactly or
  // be a sub-range of one; partial frees split the allocation record).
  Status Free(PoolOffset base, uint64_t n);

  uint64_t total_pages() const { return total_pages_; }
  uint64_t used_pages() const { return used_pages_; }
  uint64_t free_pages() const { return total_pages_ - used_pages_; }
  // Largest contiguous free extent, for fragmentation diagnostics.
  uint64_t LargestFreeExtent() const;
  // Number of free extents, for fragmentation diagnostics.
  uint64_t free_extent_count() const { return free_list_.size(); }
  // Invokes fn(base, len) for every free extent in base order (diagnostics
  // and the store-equivalence test).
  template <typename Fn>
  void ForEachFreeExtent(Fn&& fn) const {
    for (const Extent& extent : free_list_) {
      fn(extent.base, extent.len);
    }
  }

 private:
  struct Extent {
    PoolOffset base;
    uint64_t len;
  };

  // Index of the first free extent with base >= `base`.
  size_t LowerBound(PoolOffset base) const;

  uint64_t total_pages_;
  uint64_t used_pages_ = 0;
  // Upper bound on the largest free extent: exact after a failed scan,
  // raised by every Free to the extent it merged into, and never lowered
  // by a successful Allocate (which only shrinks an extent).
  uint64_t largest_free_bound_;
  // Free extents sorted by base, pairwise disjoint and non-adjacent.
  std::vector<Extent> free_list_;
};

}  // namespace trenv

#endif  // TRENV_MEMPOOL_BLOCK_ALLOCATOR_H_
