// Local DRAM frame accounting for a simulated node.
//
// Frames carry no payload (logical page content lives in page-table runs);
// the allocator tracks how much local memory a node has committed, which is
// what the paper's memory-usage figures measure.
#ifndef TRENV_SIMKERNEL_FRAME_ALLOCATOR_H_
#define TRENV_SIMKERNEL_FRAME_ALLOCATOR_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/simkernel/types.h"

namespace trenv {

class FrameAllocator {
 public:
  explicit FrameAllocator(uint64_t capacity_bytes);

  // Allocates a contiguous range of n frames; returns the base FrameId.
  Result<FrameId> AllocatePages(uint64_t n);
  void FreePages(uint64_t n);

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t used_pages() const { return used_pages_; }
  uint64_t used_bytes() const { return used_pages_ * kPageSize; }
  uint64_t free_bytes() const { return capacity_bytes_ - used_bytes(); }
  uint64_t peak_used_bytes() const { return peak_used_pages_ * kPageSize; }

 private:
  uint64_t capacity_bytes_;
  uint64_t used_pages_ = 0;
  uint64_t peak_used_pages_ = 0;
  FrameId next_frame_ = 1;
};

}  // namespace trenv

#endif  // TRENV_SIMKERNEL_FRAME_ALLOCATOR_H_
