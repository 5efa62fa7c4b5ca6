#include "src/mempool/block_allocator.h"

#include <algorithm>
#include <cassert>

namespace trenv {

BlockAllocator::BlockAllocator(uint64_t total_pages)
    : total_pages_(total_pages), largest_free_bound_(total_pages) {
  if (total_pages > 0) {
    free_list_.push_back(Extent{0, total_pages});
  }
}

size_t BlockAllocator::LowerBound(PoolOffset base) const {
  return static_cast<size_t>(
      std::lower_bound(free_list_.begin(), free_list_.end(), base,
                       [](const Extent& e, PoolOffset b) { return e.base < b; }) -
      free_list_.begin());
}

Result<PoolOffset> BlockAllocator::Allocate(uint64_t n) {
  if (n == 0) {
    return Status::InvalidArgument("zero-page allocation");
  }
  if (n > largest_free_bound_) {
    return Status::OutOfMemory("pool exhausted or fragmented");
  }
  for (size_t i = 0; i < free_list_.size(); ++i) {
    Extent& extent = free_list_[i];
    if (extent.len >= n) {
      const PoolOffset base = extent.base;
      // First fit: carve from the front of the extent. Shrinking in place
      // keeps the list sorted with no erase + reinsert.
      extent.base += n;
      extent.len -= n;
      if (extent.len == 0) {
        free_list_.erase(free_list_.begin() + static_cast<ptrdiff_t>(i));
      }
      used_pages_ += n;
      return base;
    }
  }
  largest_free_bound_ = LargestFreeExtent();
  return Status::OutOfMemory("pool exhausted or fragmented");
}

Status BlockAllocator::Free(PoolOffset base, uint64_t n) {
  if (n == 0 || base + n > total_pages_) {
    return Status::InvalidArgument("free range out of bounds");
  }
  // Validate against double-free: the range must not intersect the free list.
  const size_t i = LowerBound(base + 1);  // first extent with base' > base
  if (i < free_list_.size() && free_list_[i].base < base + n) {
    return Status::InvalidArgument("double free (overlaps free extent)");
  }
  if (i > 0 && free_list_[i - 1].base + free_list_[i - 1].len > base) {
    return Status::InvalidArgument("double free (overlaps free extent)");
  }
  assert(used_pages_ >= n);
  used_pages_ -= n;

  const bool merge_prev = i > 0 && free_list_[i - 1].base + free_list_[i - 1].len == base;
  const bool merge_next = i < free_list_.size() && base + n == free_list_[i].base;
  size_t merged = i;  // the extent that now holds [base, base + n)
  if (merge_prev && merge_next) {
    free_list_[i - 1].len += n + free_list_[i].len;
    free_list_.erase(free_list_.begin() + static_cast<ptrdiff_t>(i));
    merged = i - 1;
  } else if (merge_prev) {
    free_list_[i - 1].len += n;
    merged = i - 1;
  } else if (merge_next) {
    free_list_[i].base = base;
    free_list_[i].len += n;
  } else {
    free_list_.insert(free_list_.begin() + static_cast<ptrdiff_t>(i), Extent{base, n});
  }
  largest_free_bound_ = std::max(largest_free_bound_, free_list_[merged].len);
  return Status::Ok();
}

uint64_t BlockAllocator::LargestFreeExtent() const {
  uint64_t largest = 0;
  for (const Extent& extent : free_list_) {
    largest = std::max(largest, extent.len);
  }
  return largest;
}

}  // namespace trenv
