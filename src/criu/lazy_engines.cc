#include "src/criu/lazy_engines.h"

#include <algorithm>

#include "src/common/cost_model.h"

namespace trenv {

Result<RestoreOutcome> ReapEngine::Restore(const FunctionProfile& profile, RestoreContext& ctx) {
  const FunctionSnapshot* snapshot = SnapshotFor(profile);
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("function was never prepared: " + profile.name);
  }

  RestoreOutcome outcome;

  // --- Sandbox: the Firecracker jailer. ---
  SimDuration netns_cost = options_.pooled_netns
                               ? cost::kNetNsReset
                               : NetNsFactory::CreateCost(ctx.concurrent_startups);
  // The VM does not share the container rootfs; it gets its own jailer dir
  // (cheap) + cgroup create + legacy migration of the VMM process.
  SimDuration cgroup_cost = factory_->cgroup_manager().CreateCost() +
                            factory_->cgroup_manager().MigrateCost(ctx.concurrent_startups);
  SimDuration vmm_cost = cost::kVmmSpawn + cost::kVmDeviceSetupPerDevice * 2.0;
  outcome.startup.sandbox = netns_cost + cgroup_cost + vmm_cost + cost::kMiscNamespaces;

  // Build the sandbox object (for uniform lifecycle handling).
  const FunctionId fid = FunctionIdOf(profile);
  SandboxFactory::CreateResult created =
      factory_->CreateCold(fid, nullptr, profile.limits, 0, /*use_clone_into=*/false);
  outcome.instance = std::make_unique<FunctionInstance>(fid, std::move(created.sandbox));

  // --- Process: VM snapshot metadata (vCPU + device state). ---
  outcome.startup.process = cost::kVmSnapshotLoad;

  // --- Memory: eager prefetch of (a fraction of) the recorded working set;
  // the rest is served on demand via userfaultfd. ---
  TRENV_RETURN_IF_ERROR(
      MaterializeLayoutOnly(*snapshot, *outcome.instance, ctx, /*add_vmas=*/true));
  const double eager = profile.pages.working_set_fraction * options_.eager_fraction;
  uint64_t eager_pages_total = 0;
  for (auto& process : outcome.instance->processes()) {
    for (const auto& [start, vma] : process->mm().vmas()) {
      const auto eager_pages =
          static_cast<uint64_t>(eager * static_cast<double>(vma.npages()));
      if (eager_pages == 0) {
        continue;
      }
      TRENV_ASSIGN_OR_RETURN(FrameId frame, ctx.frames->AllocatePages(eager_pages));
      PteFlags flags;
      flags.valid = true;
      flags.write_protected = !vma.prot.write;
      flags.pool = PoolKind::kLocalDram;
      // Content comes from the snapshot; the checkpoint regions were added
      // as VMAs in the same order, so content base is recoverable — for the
      // simulation the eager set simply becomes resident.
      process->mm().page_table().MapRange(AddrToVpn(vma.start), eager_pages, flags, frame, 0);
      eager_pages_total += eager_pages;
    }
  }
  outcome.startup.memory = SimDuration::FromSecondsF(
      static_cast<double>(eager_pages_total * kPageSize) / cost::kCriuMemCopyBytesPerSec);

  // Guest kernel + VMM overhead occupies local memory for the VM's lifetime.
  const uint64_t overhead_pages = BytesToPages(cost::kVmGuestOverheadBytes);
  TRENV_RETURN_IF_ERROR(ctx.frames->AllocatePages(overhead_pages).status());
  outcome.instance->overhead_pages = overhead_pages;

  const SimTime t0 = ctx.tracer != nullptr ? ctx.tracer->now(ctx.trace_loc.pid) : SimTime();
  TracePhase(ctx, "sandbox.vm_jailer", t0, outcome.startup.sandbox);
  TracePhase(ctx, "vm.snapshot_load", t0 + outcome.startup.sandbox, outcome.startup.process);
  // A zero-page prefetch (working_set_fraction or eager_fraction of 0) did
  // no work, so it emits no span: traces show only phases that happened.
  if (eager_pages_total > 0) {
    const obs::SpanId prefetch = TracePhase(
        ctx, "vm.eager_prefetch", t0 + outcome.startup.sandbox + outcome.startup.process,
        outcome.startup.memory);
    if (ctx.tracer != nullptr) {
      ctx.tracer->Annotate(prefetch, "eager_pages", static_cast<int64_t>(eager_pages_total));
    }
  }
  return outcome;
}

Result<ExecutionOverheads> ReapEngine::OnExecute(const FunctionProfile& profile,
                                                 FunctionInstance& instance,
                                                 RestoreContext& ctx) {
  // Touch the invocation's pages. Pages not yet resident take a userfaultfd
  // round trip each — the deferred restoration cost (section 3.3: lazy
  // restore "merely defers the restoration overhead to the execution phase").
  TRENV_ASSIGN_OR_RETURN(BulkAccessStats stats, TouchInvocationPages(profile, instance, ctx));
  const uint64_t faulted = stats.minor_faults + stats.major_faults;
  const SimDuration fault_total =
      cost::kUserfaultfdFault * static_cast<double>(faulted) +
      SimDuration::FromSecondsF(static_cast<double>(faulted * kPageSize) /
                                cost::kCriuMemCopyBytesPerSec);
  // Roughly half the fault cost is CPU in the VMM's pager thread (context
  // switches + page copies) — it contends with everything else under load,
  // which is exactly why REAP/FaaSnap fall apart at P99 (section 9.2.2).
  // The rest is wall latency; FaaSnap's async prefetch hides a share of it.
  ExecutionOverheads overheads;
  overheads.added_cpu = fault_total * 0.5;
  overheads.added_latency = fault_total * 0.5 * (1.0 - options_.hidden_fault_fraction) +
                            cost::kCowFault * static_cast<double>(stats.cow_faults);
  if (ctx.tracer != nullptr && faulted > 0) {
    const obs::SpanId span = ctx.tracer->RecordSpanAt(
        ctx.trace_loc, "uffd.pagework", "fault", ctx.tracer->now(ctx.trace_loc.pid),
        fault_total, ctx.trace_parent);
    ctx.tracer->Annotate(span, "faulted_pages", static_cast<int64_t>(faulted));
    ctx.tracer->Annotate(span, "hidden_fraction", options_.hidden_fault_fraction);
  }
  return overheads;
}

FaasnapEngine::FaasnapEngine(SandboxFactory* factory, SandboxPool* pool, bool pooled_netns)
    : ReapEngine(factory, pool,
                 Options{.pooled_netns = pooled_netns,
                         .eager_fraction = cost::kFaasnapEagerFraction,
                         .hidden_fault_fraction = cost::kFaasnapHiddenFraction}) {}

}  // namespace trenv
