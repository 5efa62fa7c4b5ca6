// CXL memory pool: a multi-headed Type-3 device shared by up to a rack of
// nodes (paper section 3.1). Byte-addressable: mm-templates install *valid*
// write-protected PTEs against it, so reads cost only the extra load latency
// and no software is involved until a CoW write.
#ifndef TRENV_MEMPOOL_CXL_POOL_H_
#define TRENV_MEMPOOL_CXL_POOL_H_

#include <cstdint>
#include <set>
#include <string>

#include "src/common/cost_model.h"
#include "src/common/status.h"
#include "src/mempool/backend.h"

namespace trenv {

class CxlPool : public MemoryBackend {
 public:
  // CXL 2.0 multi-headed devices expose a fixed number of host ports (the
  // commercial solution cited in the paper supports 12).
  static constexpr uint32_t kPortCount = 12;

  explicit CxlPool(uint64_t capacity_bytes) : MemoryBackend(capacity_bytes) {}

  PoolKind kind() const override { return PoolKind::kCxl; }
  std::string_view name() const override { return "cxl-mhd"; }
  bool byte_addressable() const override { return true; }

  // Attaches a host to one of the device ports.
  Status AttachNode(uint32_t node_id);
  Status DetachNode(uint32_t node_id);
  uint32_t attached_nodes() const { return static_cast<uint32_t>(attached_.size()); }

  SimDuration DirectLoadLatency() const override { return cost::kCxlLoadLatency; }

 protected:
  // Fault-path fetch (used when CoW copies a CXL page to local DRAM):
  // streaming copy at CXL link bandwidth.
  SimDuration ComputeFetchLatency(uint64_t npages) override {
    const double bytes = static_cast<double>(npages) * static_cast<double>(kPageSize);
    return SimDuration::FromSecondsF(bytes / cost::kCxlBandwidthBytesPerSec);
  }

 private:
  std::set<uint32_t> attached_;
};

}  // namespace trenv

#endif  // TRENV_MEMPOOL_CXL_POOL_H_
