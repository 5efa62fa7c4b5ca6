// Virtual memory areas: the simulated analogue of Linux's vm_area_struct.
#ifndef TRENV_SIMKERNEL_VMA_H_
#define TRENV_SIMKERNEL_VMA_H_

#include <cstdint>
#include <string>

#include "src/simkernel/types.h"

namespace trenv {

enum class VmaType : uint8_t {
  kAnonymous = 0,   // heap, stack, malloc arenas
  kFileBacked = 1,  // executable text, shared libraries, mapped data files
};

struct Vma {
  Vaddr start = 0;
  uint64_t length = 0;  // bytes, page-aligned
  Protection prot;
  bool is_private = true;  // MAP_PRIVATE (copy-on-write) vs MAP_SHARED
  VmaType type = VmaType::kAnonymous;
  std::string name;      // "[heap]", "[stack]", "libpython3.11.so", ...
  int64_t file_id = -1;  // for kFileBacked
  uint64_t file_offset = 0;

  Vaddr end() const { return start + length; }
  uint64_t npages() const { return length / kPageSize; }
  bool Contains(Vaddr addr) const { return addr >= start && addr < end(); }
  bool Overlaps(Vaddr other_start, uint64_t other_length) const {
    return start < other_start + other_length && other_start < end();
  }
};

// Convenience constructor for a private anonymous mapping.
Vma MakeAnonVma(Vaddr start, uint64_t length, Protection prot, std::string name);

}  // namespace trenv

#endif  // TRENV_SIMKERNEL_VMA_H_
