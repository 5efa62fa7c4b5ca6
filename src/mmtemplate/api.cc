#include "src/mmtemplate/api.h"

#include <utility>

#include "src/common/cost_model.h"

namespace trenv {

namespace {
Status PrivilegeError() {
  return Status::PermissionDenied("mm-template device requires root (section 8.1)");
}
}  // namespace

MmtApi::MmtApi(const BackendRegistry* backends, obs::Registry* stats) : backends_(backends) {
  BindStats(stats != nullptr ? stats : &obs::DefaultRegistry());
}

void MmtApi::BindStats(obs::Registry* stats) {
  if (stats == nullptr) {
    creates_ = destroys_ = setup_pt_calls_ = attach_calls_ = nullptr;
    attach_metadata_bytes_ = attached_pages_ = nullptr;
    return;
  }
  creates_ = stats->GetCounter("mmt.creates");
  destroys_ = stats->GetCounter("mmt.destroys");
  setup_pt_calls_ = stats->GetCounter("mmt.setup_pt_calls");
  attach_calls_ = stats->GetCounter("mmt.attach_calls");
  attach_metadata_bytes_ = stats->GetCounter("mmt.attach_metadata_bytes");
  attached_pages_ = stats->GetCounter("mmt.attached_pages");
}

MmtId MmtApi::MmtCreate(std::string name) {
  if (!privileged_) {
    return kInvalidMmtId;
  }
  if (creates_ != nullptr) {
    creates_->Increment();
  }
  return registry_.Create(std::move(name));
}

Status MmtApi::MmtAddMap(MmtId id, Vaddr addr, uint64_t length, Protection prot, bool is_private,
                         int64_t file_id, uint64_t file_offset, std::string name) {
  if (!privileged_) {
    return PrivilegeError();
  }
  TRENV_ASSIGN_OR_RETURN(MmTemplate * tmpl, registry_.Lookup(id));
  Vma vma;
  vma.start = addr;
  vma.length = length;
  vma.prot = prot;
  vma.is_private = is_private;
  vma.type = file_id >= 0 ? VmaType::kFileBacked : VmaType::kAnonymous;
  vma.file_id = file_id;
  vma.file_offset = file_offset;
  vma.name = name.empty() ? (file_id >= 0 ? "file-map" : "anon-map") : std::move(name);
  return tmpl->mm().AddVma(std::move(vma));
}

Result<MmtSetupResult> MmtApi::MmtSetupPt(MmtId id, Vaddr addr, uint64_t length,
                                          PoolOffset pool_offset, PoolKind pool) {
  if (!privileged_) {
    return PrivilegeError();
  }
  TRENV_ASSIGN_OR_RETURN(MmTemplate * tmpl, registry_.Lookup(id));
  if (!IsPageAligned(addr) || !IsPageAligned(length) || length == 0) {
    return Status::InvalidArgument("setup_pt range must be non-empty and page aligned");
  }
  // The whole range must lie within one recorded VMA, as CRIU drives it.
  const Vma* vma = tmpl->mm().FindVma(addr);
  const Vma* vma_end = tmpl->mm().FindVma(addr + length - 1);
  if (vma == nullptr || vma != vma_end) {
    return Status::FailedPrecondition("setup_pt range not covered by a single mmt_add_map");
  }
  MemoryBackend* backend = backends_->Get(pool);
  if (backend == nullptr) {
    return Status::NotFound("no backend registered for pool");
  }
  // The pool must already hold content at the offset: the deduplicator wrote
  // the consolidated image there during preprocessing.
  TRENV_ASSIGN_OR_RETURN(PageContent content_base, backend->ReadContent(pool_offset));

  const uint64_t npages = length / kPageSize;
  PteFlags flags;
  flags.pool = pool;
  // Byte-addressable pools (CXL) get valid + write-protected PTEs so reads
  // are plain loads; message pools (RDMA/NAS) get invalid lazy PTEs.
  flags.valid = backend->byte_addressable();
  flags.write_protected = true;
  tmpl->mm().page_table().MapRange(AddrToVpn(addr), npages, flags, pool_offset, content_base);
  if (!flags.valid) {
    tmpl->AddLazyPages(npages);
  }

  MmtSetupResult result;
  result.latency = cost::kMmtSetupPtPerRun + cost::kMmtIoctl;
  if (setup_pt_calls_ != nullptr) {
    setup_pt_calls_->Increment();
  }
  return result;
}

Result<MmtAttachResult> MmtApi::MmtAttach(MmtId id, MmStruct* target) {
  if (!privileged_) {
    return PrivilegeError();
  }
  if (target == nullptr) {
    return Status::InvalidArgument("null target mm");
  }
  TRENV_ASSIGN_OR_RETURN(MmTemplate * tmpl, registry_.Lookup(id));
  // Shared-region bits (src/shstate/) are per-mapping coherence state and
  // must never appear in a template: templates are immutable rack-shared
  // metadata, and cloning an owner/dirty bit would fork the single-writer
  // protocol into every attached sandbox.
  bool clean = true;
  tmpl->mm().page_table().ForEachRun([&clean](Vpn, const PteRun& run) {
    clean = clean && !run.flags.shared && !run.flags.owner && !run.flags.dirty;
  });
  if (!clean) {
    return Status::Internal("template page table carries shared-region PTE bits");
  }
  // Validate first so a failed attach leaves the target untouched.
  for (const auto& [start, vma] : tmpl->mm().vmas()) {
    const Vma* existing = target->FindVma(vma.start);
    const Vma* existing_end = target->FindVma(vma.end() - 1);
    if (existing != nullptr || existing_end != nullptr) {
      return Status::AlreadyExists("target already maps a template range: " + vma.name);
    }
  }
  for (const auto& [start, vma] : tmpl->mm().vmas()) {
    TRENV_RETURN_IF_ERROR(target->AddVma(vma));
  }
  target->page_table().CloneFrom(tmpl->mm().page_table());
  tmpl->RecordAttach();

  MmtAttachResult result;
  result.metadata_bytes = tmpl->MetadataBytes();
  result.mapped_pages = tmpl->mm().page_table().mapped_pages();
  result.lazy_pages = tmpl->lazy_pages();
  result.latency =
      cost::kMmtIoctl + SimDuration::FromSecondsF(static_cast<double>(result.metadata_bytes) /
                                                  cost::kMmtAttachCopyBytesPerSec);
  if (attach_calls_ != nullptr) {
    attach_calls_->Increment();
    attach_metadata_bytes_->Add(static_cast<double>(result.metadata_bytes));
    attached_pages_->Add(static_cast<double>(result.mapped_pages));
  }
  return result;
}

Status MmtApi::MmtDestroy(MmtId id) {
  if (!privileged_) {
    return PrivilegeError();
  }
  if (destroys_ != nullptr) {
    destroys_->Increment();
  }
  return registry_.Destroy(id);
}

}  // namespace trenv
