// MmTemplate: an in-kernel memory-state template (paper Fig 8).
//
// A template looks like an mm_struct but (1) is not bound to any process,
// (2) treats all remote memory as read-only with copy-on-write, and (3) has
// fine-grained control over which virtual pages map to which physical pool
// offsets. Attaching copies only this metadata — never memory pages.
#ifndef TRENV_MMTEMPLATE_MM_TEMPLATE_H_
#define TRENV_MMTEMPLATE_MM_TEMPLATE_H_

#include <cstdint>
#include <string>

#include "src/simkernel/mm_struct.h"

namespace trenv {

using MmtId = uint64_t;
inline constexpr MmtId kInvalidMmtId = 0;

class MmTemplate {
 public:
  MmTemplate(MmtId id, std::string name) : id_(id), name_(std::move(name)) {}
  MmTemplate(const MmTemplate&) = delete;
  MmTemplate& operator=(const MmTemplate&) = delete;

  MmtId id() const { return id_; }
  const std::string& name() const { return name_; }

  // The template's VMAs and page table: an address space bound to no
  // process, whose every mapping is remote and write-protected.
  MmStruct& mm() { return mm_; }
  const MmStruct& mm() const { return mm_; }

  // Size of the metadata copied by an attach: VMA records + PTE runs.
  uint64_t MetadataBytes() const;

  uint64_t attach_count() const { return attach_count_; }
  void RecordAttach() { ++attach_count_; }

  // Pages mapped with invalid lazy PTEs (message-model pools), maintained by
  // MmtSetupPt so attach needn't rescan the page table.
  uint64_t lazy_pages() const { return lazy_pages_; }
  void AddLazyPages(uint64_t n) { lazy_pages_ += n; }

 private:
  MmtId id_;
  std::string name_;
  MmStruct mm_;
  uint64_t attach_count_ = 0;
  uint64_t lazy_pages_ = 0;
};

}  // namespace trenv

#endif  // TRENV_MMTEMPLATE_MM_TEMPLATE_H_
