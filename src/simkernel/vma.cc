#include "src/simkernel/vma.h"

#include <cassert>
#include <utility>

namespace trenv {

Vma MakeAnonVma(Vaddr start, uint64_t length, Protection prot, std::string name) {
  assert(IsPageAligned(start) && IsPageAligned(length));
  Vma vma;
  vma.start = start;
  vma.length = length;
  vma.prot = prot;
  vma.is_private = true;
  vma.type = VmaType::kAnonymous;
  vma.name = std::move(name);
  return vma;
}

}  // namespace trenv
