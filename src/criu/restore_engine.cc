#include "src/criu/restore_engine.h"

#include <algorithm>

#include "src/common/cost_model.h"
#include "src/criu/checkpointer.h"

namespace trenv {

uint64_t FunctionInstance::ResidentLocalPages() const {
  uint64_t pages = overhead_pages;
  for (const auto& process : processes_) {
    pages += process->mm().ResidentLocalPages();
  }
  // Pages the density manager parked in a pool tier no longer hold frames;
  // without this the engine's Retire would free them a second time.
  return pages > swapped_out_pages ? pages - swapped_out_pages : 0;
}

Status RestoreEngine::Prepare(const FunctionProfile& profile) {
  const FunctionId id = InternFunction(profile.name);
  if (snapshots_.size() <= id) {
    snapshots_.resize(id + 1);
  }
  if (snapshots_[id] == nullptr) {
    snapshots_[id] = std::make_unique<FunctionSnapshot>(Checkpoint(profile));
  }
  return Status::Ok();
}

Status RestoreEngine::MaterializeLayoutOnly(const FunctionSnapshot& snapshot,
                                            FunctionInstance& instance, RestoreContext& ctx,
                                            bool add_vmas) {
  for (const auto& image : snapshot.processes) {
    auto process = std::make_unique<Process>(ctx.pids->Next(), image.process_name, image.threads,
                                             image.open_fds);
    if (add_vmas) {
      for (const auto& region : image.regions) {
        TRENV_RETURN_IF_ERROR(process->mm().AddVma(region.ToVma()));
      }
    }
    instance.AddProcess(std::move(process));
  }
  return Status::Ok();
}

Status RestoreEngine::MaterializeLocal(const FunctionSnapshot& snapshot,
                                       FunctionInstance& instance, RestoreContext& ctx) {
  TRENV_RETURN_IF_ERROR(MaterializeLayoutOnly(snapshot, instance, ctx, /*add_vmas=*/true));
  auto process_it = instance.processes().begin();
  for (const auto& image : snapshot.processes) {
    Process& process = **process_it++;
    for (const auto& region : image.regions) {
      TRENV_ASSIGN_OR_RETURN(FrameId frame, ctx.frames->AllocatePages(region.npages));
      PteFlags flags;
      flags.valid = true;
      flags.write_protected = !region.prot.write;
      flags.pool = PoolKind::kLocalDram;
      process.mm().page_table().MapRange(AddrToVpn(region.start), region.npages, flags, frame,
                                         region.content_base, region.constant_content);
    }
  }
  return Status::Ok();
}

Result<BulkAccessStats> RestoreEngine::TouchInvocationPages(const FunctionProfile& profile,
                                                            FunctionInstance& instance,
                                                            RestoreContext& ctx) {
  const FunctionSnapshot* snapshot = SnapshotFor(profile);
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("function was never prepared: " + profile.name);
  }
  if (!fault_handler_.has_value() ||
      !fault_handler_->BoundTo(ctx.frames, ctx.backends, ctx.stats)) {
    fault_handler_.emplace(ctx.frames, ctx.backends, ctx.stats);
  }
  // Every invocation starts from a new handler's state, so the contents its
  // writes store do not depend on what the engine ran before.
  FaultHandler& handler = *fault_handler_;
  handler.Restart(ctx.fault_observer);
  BulkAccessStats total;
  // Write budget: write_fraction of the WHOLE image, distributed over the
  // writable regions (heap, stack, .data) until exhausted — interpreters
  // mutate state wherever they may.
  uint64_t write_budget = static_cast<uint64_t>(profile.pages.write_fraction *
                                                static_cast<double>(snapshot->TotalPages()));
  auto process_it = instance.processes().begin();
  for (const auto& image : snapshot->processes) {
    if (process_it == instance.processes().end()) {
      break;
    }
    Process& process = **process_it++;
    for (const auto& region : image.regions) {
      // Reads touch the leading read_fraction of every region.
      const auto read_pages = static_cast<uint64_t>(profile.pages.read_fraction *
                                                    static_cast<double>(region.npages));
      if (read_pages > 0) {
        TRENV_ASSIGN_OR_RETURN(
            BulkAccessStats stats,
            handler.AccessRange(process.mm(), region.start, read_pages, /*write=*/false));
        total.MergeFrom(stats);
      }
      if (region.prot.write && write_budget > 0) {
        const uint64_t write_pages = std::min(region.npages, write_budget);
        write_budget -= write_pages;
        TRENV_ASSIGN_OR_RETURN(
            BulkAccessStats stats,
            handler.AccessRange(process.mm(), region.start, write_pages, /*write=*/true));
        total.MergeFrom(stats);
      }
    }
  }
  // One "fault.touch" span per invocation's page work, annotated with the
  // fault/fetch decomposition (the trace-level view of Fig 4's memory phase).
  if (ctx.tracer != nullptr) {
    const obs::SpanId span =
        ctx.tracer->RecordSpanAt(ctx.trace_loc, "fault.touch", "fault",
                                 ctx.tracer->now(ctx.trace_loc.pid), total.latency,
                                 ctx.trace_parent);
    ctx.tracer->Annotate(span, "pages", static_cast<int64_t>(total.pages));
    ctx.tracer->Annotate(span, "minor_faults", static_cast<int64_t>(total.minor_faults));
    ctx.tracer->Annotate(span, "major_faults", static_cast<int64_t>(total.major_faults));
    ctx.tracer->Annotate(span, "cow_faults", static_cast<int64_t>(total.cow_faults));
    ctx.tracer->Annotate(span, "bytes_fetched", static_cast<int64_t>(total.bytes_fetched));
    ctx.tracer->Annotate(span, "direct_remote", static_cast<int64_t>(total.direct_remote));
    ctx.tracer->Annotate(span, "direct_local", static_cast<int64_t>(total.direct_local));
    ctx.tracer->Annotate(span, "fetch_cpu_ms", total.fetch_cpu.millis());
  }
  return total;
}

Result<ExecutionOverheads> RestoreEngine::OnExecute(const FunctionProfile& profile,
                                                    FunctionInstance& instance,
                                                    RestoreContext& ctx) {
  // Default: run the touches through the fault handler and charge whatever
  // the page-table state implies (copy-restored instances: nothing).
  TRENV_ASSIGN_OR_RETURN(BulkAccessStats stats, TouchInvocationPages(profile, instance, ctx));
  ExecutionOverheads overheads;
  overheads.added_latency = stats.latency;
  overheads.added_cpu = stats.fetch_cpu;
  return overheads;
}

void RestoreEngine::OnExecuteDone(FunctionInstance& instance) { (void)instance; }

void RestoreEngine::Retire(std::unique_ptr<FunctionInstance> instance, RestoreContext& ctx) {
  ctx.frames->FreePages(instance->ResidentLocalPages());
}

Result<RestoreOutcome> ColdStartEngine::Restore(const FunctionProfile& profile,
                                                RestoreContext& ctx) {
  const FunctionSnapshot* snapshot = SnapshotFor(profile);
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("function was never prepared: " + profile.name);
  }
  const FunctionId fid = FunctionIdOf(profile);
  SandboxFactory::CreateResult created =
      factory_->CreateCold(fid, pool_->AcquireOverlay(fid), profile.limits,
                           ctx.concurrent_startups, /*use_clone_into=*/false);

  RestoreOutcome outcome;
  outcome.instance = std::make_unique<FunctionInstance>(fid, std::move(created.sandbox));
  // Bootstrapping allocates and initializes the whole image in local memory.
  TRENV_RETURN_IF_ERROR(MaterializeLocal(*snapshot, *outcome.instance, ctx));
  outcome.startup.sandbox = created.cost.Total();
  outcome.startup.process = profile.bootstrap;
  outcome.startup.process_is_cpu = true;

  const SimTime t0 = ctx.tracer != nullptr ? ctx.tracer->now(ctx.trace_loc.pid) : SimTime();
  TracePhase(ctx, "sandbox.cold", t0, outcome.startup.sandbox);
  const obs::SpanId boot = TracePhase(ctx, "bootstrap", t0 + outcome.startup.sandbox,
                                      outcome.startup.process);
  if (ctx.tracer != nullptr) {
    ctx.tracer->Annotate(boot, "image_bytes", static_cast<int64_t>(snapshot->TotalBytes()));
  }
  return outcome;
}

Result<RestoreOutcome> VanillaCriuEngine::Restore(const FunctionProfile& profile,
                                                  RestoreContext& ctx) {
  const FunctionSnapshot* snapshot = SnapshotFor(profile);
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("function was never prepared: " + profile.name);
  }
  const FunctionId fid = FunctionIdOf(profile);
  SandboxFactory::CreateResult created =
      factory_->CreateCold(fid, pool_->AcquireOverlay(fid), profile.limits,
                           ctx.concurrent_startups, /*use_clone_into=*/false);

  RestoreOutcome outcome;
  outcome.instance = std::make_unique<FunctionInstance>(fid, std::move(created.sandbox));
  TRENV_RETURN_IF_ERROR(MaterializeLocal(*snapshot, *outcome.instance, ctx));

  outcome.startup.sandbox = created.cost.Total();
  // Non-memory process state: base + per-thread clone() + per-fd restore,
  // plus one mmap() replay per restored VMA.
  uint64_t vma_count = 0;
  for (const auto& image : snapshot->processes) {
    vma_count += image.regions.size();
  }
  outcome.startup.process =
      cost::kCriuMiscRestoreBase +
      cost::kCriuPerThreadClone * static_cast<double>(snapshot->TotalThreads()) +
      cost::kCriuPerOpenFd * static_cast<double>(profile.open_fds) +
      cost::kMmapSyscall * static_cast<double>(vma_count);
  // Copy-based memory restoration from the tmpfs snapshot.
  outcome.startup.memory = SimDuration::FromSecondsF(
      static_cast<double>(snapshot->TotalBytes()) / cost::kCriuMemCopyBytesPerSec);

  const SimTime t0 = ctx.tracer != nullptr ? ctx.tracer->now(ctx.trace_loc.pid) : SimTime();
  TracePhase(ctx, "sandbox.cold", t0, outcome.startup.sandbox);
  TracePhase(ctx, "criu.process_state", t0 + outcome.startup.sandbox, outcome.startup.process);
  const obs::SpanId copy = TracePhase(
      ctx, "criu.memcopy", t0 + outcome.startup.sandbox + outcome.startup.process,
      outcome.startup.memory);
  if (ctx.tracer != nullptr) {
    ctx.tracer->Annotate(copy, "bytes", static_cast<int64_t>(snapshot->TotalBytes()));
    ctx.tracer->Annotate(copy, "vmas", static_cast<int64_t>(vma_count));
  }
  return outcome;
}

}  // namespace trenv
