#include "src/criu/trenv_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/cost_model.h"

namespace trenv {

TrEnvEngine::TrEnvEngine(SandboxFactory* factory, SandboxPool* pool, MmtApi* mmt,
                         SnapshotDedupStore* dedup, Options options)
    : factory_(factory),
      pool_(pool),
      mmt_(mmt),
      dedup_(dedup),
      options_(options) {
  if (options_.use_mm_template) {
    name_ = "trenv";
  } else if (options_.clone_into_cgroup) {
    name_ = "trenv-cgroup";  // repurpose + clone-into, no mm-template
  } else if (options_.repurpose_sandbox) {
    name_ = "trenv-reconfig";  // repurpose only
  } else {
    name_ = "trenv-base";
  }
}

TrEnvEngine::TrEnvEngine(SandboxFactory* factory, SandboxPool* pool, MmtApi* mmt,
                         SnapshotDedupStore* dedup)
    : TrEnvEngine(factory, pool, mmt, dedup, Options{}) {}

Status TrEnvEngine::Prepare(const FunctionProfile& profile) {
  TRENV_RETURN_IF_ERROR(RestoreEngine::Prepare(profile));
  const FunctionId fid = FunctionIdOf(profile);
  if (!options_.use_mm_template ||
      (fid < prepared_.size() && prepared_[fid] != nullptr)) {
    return Status::Ok();
  }
  const FunctionSnapshot* snapshot = SnapshotFor(profile);
  // Step A2: deduplicate the snapshot into the shared pool...
  TRENV_ASSIGN_OR_RETURN(ConsolidatedImage image, dedup_->Store(*snapshot));
  // ...and build one mm-template per process from the consolidated image.
  std::vector<MmtId> ids;
  for (size_t p = 0; p < image.processes.size(); ++p) {
    const ProcessImage& proc_image = snapshot->processes[p];
    MmtId id = mmt_->MmtCreate(profile.name + "/" + proc_image.process_name);
    for (const PlacedRegion& placed : image.processes[p]) {
      const MemoryRegion& region = placed.region;
      TRENV_RETURN_IF_ERROR(mmt_->MmtAddMap(id, region.start, region.bytes(), region.prot,
                                            region.is_private,
                                            region.type == VmaType::kFileBacked ? 1 : -1, 0,
                                            region.name));
      uint64_t done = 0;
      for (const PlacedChunk& chunk : placed.chunks) {
        TRENV_RETURN_IF_ERROR(mmt_->MmtSetupPt(id, region.start + done * kPageSize,
                                               chunk.npages * kPageSize, chunk.offset,
                                               chunk.pool)
                                  .status());
        done += chunk.npages;
      }
    }
    ids.push_back(id);
  }
  if (prepared_.size() <= fid) {
    prepared_.resize(fid + 1);
  }
  prepared_[fid] = std::make_unique<Prepared>(Prepared{std::move(ids), std::move(image), {}});
  return Status::Ok();
}

const std::vector<MmtId>* TrEnvEngine::TemplatesFor(FunctionId function) const {
  const Prepared* prepared = PreparedById(function);
  return prepared != nullptr ? &prepared->templates : nullptr;
}

const ConsolidatedImage* TrEnvEngine::ImageFor(FunctionId function) const {
  const Prepared* prepared = PreparedById(function);
  return prepared != nullptr ? &prepared->image : nullptr;
}

const WorkingSetProfile* TrEnvEngine::WorkingSetFor(FunctionId function) const {
  const Prepared* prepared = PreparedById(function);
  return prepared != nullptr && prepared->ws.complete ? &prepared->ws : nullptr;
}

void TrEnvEngine::WorkingSetRecorder::Arm(WorkingSetProfile* ws, FunctionInstance& instance) {
  ws_ = ws;
  mms_.clear();
  for (auto& process : instance.processes()) {
    mms_.push_back(&process->mm());
  }
  if (ws_->processes.size() < mms_.size()) {
    ws_->processes.resize(mms_.size());
  }
}

void TrEnvEngine::WorkingSetRecorder::Disarm() {
  ws_ = nullptr;
  mms_.clear();
}

void TrEnvEngine::WorkingSetRecorder::OnTouch(const MmStruct& mm, Vpn vpn,
                                              uint64_t npages) {
  if (ws_ == nullptr) {
    return;
  }
  for (size_t p = 0; p < mms_.size(); ++p) {
    if (mms_[p] == &mm) {
      ws_->processes[p].Add(vpn, npages);
      return;
    }
  }
}

Result<RestoreOutcome> TrEnvEngine::Restore(const FunctionProfile& profile,
                                            RestoreContext& ctx) {
  const FunctionSnapshot* snapshot = SnapshotFor(profile);
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("function was never prepared: " + profile.name);
  }
  RestoreOutcome outcome;
  const SimTime t0 = ctx.tracer != nullptr ? ctx.tracer->now(ctx.trace_loc.pid) : SimTime();

  // --- Step B2: sandbox (repurpose if possible). ---
  std::unique_ptr<Sandbox> sandbox;
  if (options_.repurpose_sandbox) {
    sandbox = pool_->Take();
  }
  const FunctionId fid = FunctionIdOf(profile);
  if (sandbox != nullptr) {
    TRENV_ASSIGN_OR_RETURN(SandboxCost cost,
                           sandbox->Repurpose(fid, pool_->AcquireOverlay(fid), profile.limits));
    outcome.startup.sandbox = cost.Total();
    // The restored processes must still enter the reused cgroup: either via
    // legacy migration (global-rwsem-bound) or CLONE_INTO_CGROUP at spawn.
    outcome.startup.sandbox +=
        options_.clone_into_cgroup
            ? factory_->cgroup_manager().CloneIntoCost()
            : factory_->cgroup_manager().MigrateCost(ctx.concurrent_startups);
    outcome.startup.sandbox_repurposed = true;
  } else {
    SandboxFactory::CreateResult created =
        factory_->CreateCold(fid, pool_->AcquireOverlay(fid), profile.limits,
                             ctx.concurrent_startups, options_.clone_into_cgroup);
    sandbox = std::move(created.sandbox);
    outcome.startup.sandbox = created.cost.Total();
  }
  outcome.instance = std::make_unique<FunctionInstance>(fid, std::move(sandbox));
  TracePhase(ctx, outcome.startup.sandbox_repurposed ? "sandbox.repurpose" : "sandbox.cold", t0,
             outcome.startup.sandbox);

  // --- Step B3: CRIU repurpose request (non-memory process state). ---
  outcome.startup.process =
      cost::kCriuRepurposeRequest +
      cost::kCriuPerThreadClone * static_cast<double>(snapshot->TotalThreads()) +
      cost::kCriuPerOpenFd * static_cast<double>(profile.open_fds);
  TracePhase(ctx, "criu.process_state", t0 + outcome.startup.sandbox, outcome.startup.process);
  SimTime phase_start = t0 + outcome.startup.sandbox + outcome.startup.process;

  // --- Step B4: memory state. ---
  if (options_.use_mm_template) {
    TRENV_RETURN_IF_ERROR(
        MaterializeLayoutOnly(*snapshot, *outcome.instance, ctx, /*add_vmas=*/false));
    const std::vector<MmtId>& ids = PreparedFor(profile)->templates;
    size_t p = 0;
    uint64_t attach_lazy_pages = 0;
    for (auto& process : outcome.instance->processes()) {
      TRENV_ASSIGN_OR_RETURN(MmtAttachResult attach, mmt_->MmtAttach(ids[p++], &process->mm()));
      outcome.startup.memory += attach.latency;
      attach_lazy_pages += attach.lazy_pages;
      const obs::SpanId span = TracePhase(ctx, "mmt.attach", phase_start, attach.latency);
      if (ctx.tracer != nullptr) {
        ctx.tracer->Annotate(span, "process", process->name());
        ctx.tracer->Annotate(span, "metadata_bytes",
                             static_cast<int64_t>(attach.metadata_bytes));
        ctx.tracer->Annotate(span, "mapped_pages", static_cast<int64_t>(attach.mapped_pages));
      }
      phase_start = phase_start + attach.latency;
    }
    // Fully byte-addressable templates (T-CXL) have nothing to prefetch; the
    // attach-time lazy-page count makes that a constant-time skip.
    if (options_.prefetch && attach_lazy_pages > 0) {
      PrefetchWorkingSet(profile, outcome, ctx, t0);
    }
  } else {
    // Ablation: repurposed sandbox but copy-based memory restoration.
    TRENV_RETURN_IF_ERROR(MaterializeLocal(*snapshot, *outcome.instance, ctx));
    uint64_t vma_count = 0;
    for (const auto& image : snapshot->processes) {
      vma_count += image.regions.size();
    }
    outcome.startup.memory =
        SimDuration::FromSecondsF(static_cast<double>(snapshot->TotalBytes()) /
                                  cost::kCriuMemCopyBytesPerSec) +
        cost::kMmapSyscall * static_cast<double>(vma_count);
    const obs::SpanId span = TracePhase(ctx, "criu.memcopy", phase_start, outcome.startup.memory);
    if (ctx.tracer != nullptr) {
      ctx.tracer->Annotate(span, "bytes", static_cast<int64_t>(snapshot->TotalBytes()));
    }
  }
  return outcome;
}

void TrEnvEngine::PrefetchWorkingSet(const FunctionProfile& profile, RestoreOutcome& outcome,
                                     RestoreContext& ctx, SimTime t0) {
  const Prepared* prepared = PreparedFor(profile);
  if (prepared == nullptr || !prepared->ws.complete) {
    return;  // nothing recorded yet: the first invocation demand-faults
  }
  const WorkingSetProfile& ws = prepared->ws;
  uint64_t budget = ws.TotalPages();
  if (budget == 0) {
    return;
  }

  // Intersect the recorded runs with the attached page tables: only runs
  // still lazy on a message-model pool (RDMA/NAS) are worth fetching; CXL
  // pages are read directly and resident pages need nothing.
  struct PlannedRun {
    MmStruct* mm;
    Vpn vpn;
    PteRun run;  // clipped template run
  };
  std::vector<PlannedRun> plan;
  size_t p = 0;
  for (auto& process : outcome.instance->processes()) {
    if (p >= ws.processes.size() || budget == 0) {
      break;
    }
    MmStruct& mm = process->mm();
    for (const PageRun& rec : ws.processes[p++].runs()) {
      if (budget == 0) {
        break;
      }
      mm.page_table().ForEachRunIn(rec.vpn, rec.npages, [&](Vpn vpn, const PteRun& run) {
        if (budget == 0 || run.flags.valid || !run.flags.remote()) {
          return;
        }
        PteRun clipped = run;
        clipped.npages = std::min(run.npages, budget);
        budget -= clipped.npages;
        plan.push_back(PlannedRun{&mm, vpn, clipped});
      });
    }
  }
  if (plan.empty()) {
    return;
  }

  // Map the fetched runs resident-local up front. Frame pressure stops the
  // prefetch gracefully: unplanned runs simply demand-fault as before.
  uint64_t pool_pages[kPoolKindCount] = {};
  uint64_t pool_runs[kPoolKindCount] = {};
  uint64_t mapped_pages = 0;
  uint64_t mapped_runs = 0;
  for (const PlannedRun& pr : plan) {
    auto frame_or = ctx.frames->AllocatePages(pr.run.npages);
    if (!frame_or.ok()) {
      break;
    }
    const Vma* vma = pr.mm->FindVma(VpnToAddr(pr.vpn));
    PteFlags flags;
    flags.valid = true;
    flags.write_protected = vma == nullptr || !vma->prot.write;
    flags.pool = PoolKind::kLocalDram;
    pr.mm->page_table().MapRange(pr.vpn, pr.run.npages, flags, frame_or.value(),
                                 pr.run.content_base, pr.run.constant_content);
    const auto pool = static_cast<size_t>(pr.run.flags.pool);
    pool_pages[pool] += pr.run.npages;
    pool_runs[pool] += 1;
    mapped_pages += pr.run.npages;
    mapped_runs += 1;
  }
  if (mapped_pages == 0) {
    return;
  }

  // One coalesced scatter-gather batch per message pool, issued through the
  // engine's NIC queue at restore start so concurrent attaches on this node
  // serialize (work-conserving busy window) and fetch retry/chaos apply.
  uint64_t ops = 0;
  for (size_t pool = 0; pool < kPoolKindCount; ++pool) {
    if (pool_pages[pool] == 0) {
      continue;
    }
    MemoryBackend* backend = ctx.backends->Get(static_cast<PoolKind>(pool));
    if (backend == nullptr) {
      continue;
    }
    std::vector<FetchRequest> requests;
    requests.push_back(
        FetchRequest{static_cast<uint32_t>(pool), pool_pages[pool], pool_runs[pool]});
    const FetchOutcome fetched = prefetch_nic_.Issue(ctx.now, std::move(requests), backend);
    ops += fetched.ops;
  }
  // The batches run asynchronously, overlapped with the B2 repurpose and B3
  // process-state phases; only what spills past that window lands on the
  // critical path as extra memory-phase latency.
  const SimDuration total = prefetch_nic_.busy_until() - ctx.now;
  const SimDuration hidden = outcome.startup.sandbox + outcome.startup.process;
  const SimDuration residual = total > hidden ? total - hidden : SimDuration::Zero();
  outcome.startup.memory += residual;

  const obs::SpanId span = TracePhase(ctx, "trenv.prefetch", t0, total);
  if (ctx.tracer != nullptr) {
    ctx.tracer->Annotate(span, "pages", static_cast<int64_t>(mapped_pages));
    ctx.tracer->Annotate(span, "runs", static_cast<int64_t>(mapped_runs));
    ctx.tracer->Annotate(span, "bulk_ops", static_cast<int64_t>(ops));
    ctx.tracer->Annotate(span, "hidden_ms", hidden.millis());
    ctx.tracer->Annotate(span, "residual_ms", residual.millis());
  }
  if (ctx.stats != nullptr) {
    ctx.stats->GetCounter("trenv.prefetch.attaches")->Increment();
    ctx.stats->GetCounter("trenv.prefetch.pages")->Add(static_cast<double>(mapped_pages));
    ctx.stats->GetCounter("trenv.prefetch.runs")->Add(static_cast<double>(mapped_runs));
    ctx.stats->GetCounter("trenv.prefetch.bulk_ops")->Add(static_cast<double>(ops));
  }
}

Result<ExecutionOverheads> TrEnvEngine::OnExecute(const FunctionProfile& profile,
                                                  FunctionInstance& instance,
                                                  RestoreContext& ctx) {
  // Open fetch streams on any message-model pools backing this instance, so
  // the pool's contention model sees the concurrent load.
  std::vector<MemoryBackend*> streams;
  for (auto& process : instance.processes()) {
    const uint64_t lazy_pages = process->mm().page_table().CountPagesIf(
        [](const PteFlags& f) { return f.remote() && !f.valid; });
    if (lazy_pages > 0) {
      for (PoolKind kind : {PoolKind::kRdma, PoolKind::kNas}) {
        MemoryBackend* backend = ctx.backends->Get(kind);
        if (backend != nullptr) {
          backend->BeginStream();
          streams.push_back(backend);
        }
      }
    }
  }
  if (!streams.empty()) {
    open_streams_[&instance] = std::move(streams);
  }

  // First recorded invocation: capture the major-fault footprint as the
  // function's working set (feeds both the attach prefetcher and promotion
  // heat). Recording is pure observation — fault costs are unchanged.
  Prepared* recording_target = nullptr;
  if (options_.use_mm_template &&
      (options_.prefetch || promotion_ != nullptr)) {
    Prepared* prepared = MutablePreparedFor(profile);
    if (prepared != nullptr && !prepared->ws.complete) {
      recording_target = prepared;
      recorder_.Arm(&recording_target->ws, instance);
      ctx.fault_observer = &recorder_;
    }
  }
  TRENV_ASSIGN_OR_RETURN(BulkAccessStats stats, TouchInvocationPages(profile, instance, ctx));
  if (recording_target != nullptr) {
    recorder_.Disarm();
    ctx.fault_observer = nullptr;
    recording_target->ws.complete = true;
    if (ctx.stats != nullptr) {
      ctx.stats->GetCounter("trenv.ws.recorded_pages")
          ->Add(static_cast<double>(recording_target->ws.TotalPages()));
      ctx.stats->GetCounter("trenv.ws.recorded_runs")
          ->Add(static_cast<double>(recording_target->ws.TotalRuns()));
    }
  }
  ExecutionOverheads overheads;
  overheads.added_latency = stats.latency;
  overheads.added_cpu = stats.fetch_cpu;
  // Direct CXL loads slow the CPU-bound portion (no faults, just latency).
  // The slowdown scales with the fraction of reads actually served from
  // remote byte-addressable memory: templates that keep hot regions in
  // local DRAM (the paper's suggested optimization) shrink it.
  const uint64_t direct_reads = stats.direct_remote + stats.direct_local;
  if (stats.direct_remote > 0 && direct_reads > 0) {
    const double remote_fraction =
        static_cast<double>(stats.direct_remote) / static_cast<double>(direct_reads);
    overheads.cpu_multiplier =
        1.0 + (ExecutionModel::CxlCpuMultiplier(profile) - 1.0) * remote_fraction;
  }
  // Heat accounting for the tiered-promotion policy.
  if (promotion_ != nullptr) {
    const Prepared* prepared = PreparedFor(profile);
    if (prepared != nullptr) {
      HeatChunks(*prepared);
    }
    if (++executions_since_sweep_ >= kPromotionSweepInterval) {
      executions_since_sweep_ = 0;
      for (const PromotionManager::Move& move : promotion_->Sweep()) {
        // Future templates see the new placement; update the recorded image
        // so heat accounting follows the chunk.
        for (auto& entry : prepared_) {
          if (entry == nullptr) {
            continue;
          }
          ConsolidatedImage& image = entry->image;
          for (auto& placed_regions : image.processes) {
            for (auto& placed : placed_regions) {
              for (auto& chunk : placed.chunks) {
                if (chunk.pool == move.from.kind && chunk.offset == move.from.base &&
                    chunk.npages == move.from.npages) {
                  chunk.pool = move.to.kind;
                  chunk.offset = move.to.base;
                }
              }
            }
          }
        }
      }
    }
  }
  return overheads;
}

void TrEnvEngine::HeatChunks(const Prepared& prepared) {
  // With a recorded working set, heat each chunk by how many recorded pages
  // land in its window — untouched chunks stay cold and never migrate. Until
  // a first invocation has been recorded, fall back to heating every chunk
  // uniformly (the historical behaviour).
  //
  // Hit counts are quantized to [1, kChunkHeatMax] by chunk coverage rather
  // than fed as raw page counts: a raw count (hundreds of pages) would need
  // tens of decay sweeps to drop below demote_threshold, which unbinds the
  // hot-tier budget. Bounding the per-execute delta keeps the decay/threshold
  // dynamics the promotion knobs were tuned for while still ranking
  // candidates by recorded coverage.
  constexpr uint64_t kChunkHeatMax = 4;
  const bool use_ws = prepared.ws.complete;
  for (size_t p = 0; p < prepared.image.processes.size(); ++p) {
    const PageRunSet* set =
        use_ws && p < prepared.ws.processes.size() ? &prepared.ws.processes[p] : nullptr;
    for (const PlacedRegion& placed : prepared.image.processes[p]) {
      uint64_t done = 0;
      for (const PlacedChunk& chunk : placed.chunks) {
        uint64_t touches = 1;
        if (use_ws) {
          const Vpn base = AddrToVpn(placed.region.start) + done;
          const uint64_t hits =
              set != nullptr ? set->OverlapPages(base, chunk.npages) : 0;
          touches = chunk.npages > 0
                        ? (hits * kChunkHeatMax + chunk.npages - 1) / chunk.npages
                        : hits;
        }
        done += chunk.npages;
        if (touches == 0) {
          continue;
        }
        promotion_->RecordAccess(PoolPlacement{chunk.pool, chunk.offset, chunk.npages},
                                 touches);
      }
    }
  }
}

void TrEnvEngine::OnExecuteDone(FunctionInstance& instance) {
  auto it = open_streams_.find(&instance);
  if (it == open_streams_.end()) {
    return;
  }
  for (MemoryBackend* backend : it->second) {
    backend->EndStream();
  }
  open_streams_.erase(it);
}

void TrEnvEngine::OnCrash() {
  // The node died: close whatever fetch streams its instances had open so
  // the shared pools' contention model doesn't count ghost readers forever.
  for (auto& [instance, backends] : open_streams_) {
    for (MemoryBackend* backend : backends) {
      backend->EndStream();
    }
  }
  open_streams_.clear();
}

void TrEnvEngine::Retire(std::unique_ptr<FunctionInstance> instance, RestoreContext& ctx) {
  OnExecuteDone(*instance);
  ctx.frames->FreePages(instance->ResidentLocalPages());
  std::unique_ptr<Sandbox> sandbox = instance->TakeSandbox();
  if (sandbox == nullptr || !options_.repurpose_sandbox) {
    return;
  }
  // Step B1: cleanse (kill processes, purge upper dirs) and park.
  sandbox->Cleanse(static_cast<uint32_t>(instance->processes().size()));
  // Return the function overlay to its cache for the next instance.
  pool_->ReleaseOverlay(instance->function_id(), sandbox->function_overlay());
  pool_->Put(std::move(sandbox));
}

}  // namespace trenv
