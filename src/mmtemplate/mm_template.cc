#include "src/mmtemplate/mm_template.h"

namespace trenv {

uint64_t MmTemplate::MetadataBytes() const {
  constexpr uint64_t kPerVmaBytes = 184;  // sizeof(vm_area_struct) on x86-64
  return kPerVmaBytes * mm_.vma_count() + mm_.page_table().MetadataBytes();
}

}  // namespace trenv
