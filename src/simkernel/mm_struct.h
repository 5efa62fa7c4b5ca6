// MmStruct: a process address space — VMAs plus the software page table.
// The simulated analogue of Linux's mm_struct, and the object an mm-template
// attaches into (paper Fig 8).
#ifndef TRENV_SIMKERNEL_MM_STRUCT_H_
#define TRENV_SIMKERNEL_MM_STRUCT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/simkernel/page_table.h"
#include "src/simkernel/vma.h"

namespace trenv {

class MmStruct {
 public:
  MmStruct() = default;
  MmStruct(const MmStruct&) = delete;
  MmStruct& operator=(const MmStruct&) = delete;
  MmStruct(MmStruct&&) = default;
  MmStruct& operator=(MmStruct&&) = default;

  // Adds a VMA; fails on overlap with an existing area.
  Status AddVma(Vma vma);
  // Removes the VMA starting exactly at `start` and unmaps its pages.
  Status RemoveVma(Vaddr start);
  const Vma* FindVma(Vaddr addr) const;
  const std::map<Vaddr, Vma>& vmas() const { return vmas_; }
  size_t vma_count() const { return vmas_.size(); }

  // Grows the named VMA (e.g. "[heap]") by `bytes` (page-aligned), returning
  // the address of the newly added region. New pages are unpopulated and will
  // zero-fill locally on demand — the Fig 9(b) behaviour: growth after an
  // mm-template attach never lands on shared CXL ranges.
  Result<Vaddr> GrowVma(Vaddr start, uint64_t bytes);

  PageTable& page_table() { return page_table_; }
  const PageTable& page_table() const { return page_table_; }

  // Total virtual size of all VMAs in bytes.
  uint64_t VirtualBytes() const;
  // Pages resident in local DRAM (the node-memory footprint of the process).
  uint64_t ResidentLocalPages() const;
  // Pages mapped but still backed by a remote pool.
  uint64_t RemoteMappedPages() const;

 private:
  std::map<Vaddr, Vma> vmas_;  // keyed by start address
  PageTable page_table_;
};

}  // namespace trenv

#endif  // TRENV_SIMKERNEL_MM_STRUCT_H_
