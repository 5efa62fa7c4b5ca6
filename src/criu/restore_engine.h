// Restore engines: the five ways the evaluated systems get from "invocation
// arrived" to "function executing".
//
//   ColdStartEngine   - faasd: build sandbox, bootstrap interpreter.
//   VanillaCriuEngine - CRIU: build sandbox, copy memory image back.
//   ReapEngine(+)     - Firecracker + recorded working-set prefetch, lazy
//   FaasnapEngine(+)    userfaultfd paging for the rest (lazy_engines.h).
//   TrEnvEngine       - repurposed sandbox + mm-template attach
//                       (trenv_engine.h).
//
// An engine also owns the execution-phase memory behaviour of its instances
// (OnExecute) because lazy restoration defers restore cost into execution.
#ifndef TRENV_CRIU_RESTORE_ENGINE_H_
#define TRENV_CRIU_RESTORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/interner.h"
#include "src/common/status.h"
#include "src/density/tier.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/criu/process_image.h"
#include "src/runtime/execution_model.h"
#include "src/runtime/function_profile.h"
#include "src/runtime/process.h"
#include "src/sandbox/sandbox.h"
#include "src/sandbox/sandbox_pool.h"
#include "src/simkernel/fault_handler.h"
#include "src/simkernel/types.h"

namespace trenv {

// Startup latency broken down as in Fig 4 / Fig 19 / Fig 21.
struct StartupBreakdown {
  SimDuration sandbox;  // isolation environment (netns + rootfs + cgroup + misc)
  SimDuration process;  // non-memory process state (clone/fds) or bootstrap
  SimDuration memory;   // memory restoration on the critical path

  // True when the `process` phase is CPU work (cold-start bootstrap) rather
  // than kernel-side latency; the invoker then routes it through the CPU.
  bool process_is_cpu = false;
  // True when the sandbox came from the repurposable pool (step B2 hit).
  bool sandbox_repurposed = false;

  SimDuration Total() const { return sandbox + process + memory; }
};

// A running (or keep-alive-cached) function environment.
class FunctionInstance {
 public:
  FunctionInstance(FunctionId function, std::unique_ptr<Sandbox> sandbox)
      : function_id_(function), sandbox_(std::move(sandbox)) {}

  FunctionId function_id() const { return function_id_; }
  Sandbox* sandbox() { return sandbox_.get(); }
  std::unique_ptr<Sandbox> TakeSandbox() { return std::move(sandbox_); }

  void AddProcess(std::unique_ptr<Process> process) {
    processes_.push_back(std::move(process));
  }
  std::vector<std::unique_ptr<Process>>& processes() { return processes_; }
  const std::vector<std::unique_ptr<Process>>& processes() const { return processes_; }
  Process* main_process() { return processes_.empty() ? nullptr : processes_.front().get(); }

  // Local DRAM pages attributable to this instance (process RSS + fixed
  // overhead such as a guest kernel for VM-based engines), NET of pages the
  // density manager has swapped out to a pool tier. The engine's Retire frees
  // exactly this many frames, so demoted pages (whose frames were already
  // released at demotion time) must not be counted twice.
  uint64_t ResidentLocalPages() const;
  uint64_t overhead_pages = 0;

  uint64_t invocations = 0;
  SimTime last_used;

  // --- Density-tiering state (owned by DensityManager; inert otherwise) ----
  // Which rung of the DRAM/CXL/NAS ladder the parked instance sits on.
  DensityTier density_tier = DensityTier::kDramHot;
  // FootprintModel::NodeBytes() stamped at park time (drives the pool's
  // per-tier aggregates and the overcommit ceiling).
  uint64_t footprint_bytes = 0;
  // Dirty pages demoted out of node DRAM into `swap_pool` at `swap_base`.
  uint64_t swapped_out_pages = 0;
  PoolKind swap_pool = PoolKind::kLocalDram;
  // Demand-fetch bill from a lazy promote: attach maps the swap block's
  // page-table runs only, and the pages stream back during the next
  // execution, which the platform extends by this amount (then clears it).
  SimDuration pending_demand_fetch;
  PoolOffset swap_base = 0;

 private:
  FunctionId function_id_;
  std::unique_ptr<Sandbox> sandbox_;
  std::vector<std::unique_ptr<Process>> processes_;
};

// Shared machinery the platform hands to engines per operation.
struct RestoreContext {
  FrameAllocator* frames = nullptr;
  const BackendRegistry* backends = nullptr;
  PidAllocator* pids = nullptr;
  // Startups currently in flight (drives kernel-lock contention models).
  uint32_t concurrent_startups = 0;
  // Virtual time of the operation (the platform stamps its scheduler clock;
  // hand-built contexts default to zero). Engines that share a rate-limited
  // resource across operations (the prefetch NIC queue) need it for
  // work-conserving busy windows.
  SimTime now;
  // When set, TouchInvocationPages reports every touched page run here (the
  // TrEnv working-set recorder arms this during a first invocation).
  PageTouchObserver* fault_observer = nullptr;
  // Observability: engines record phase-detail spans under `trace_parent` at
  // `trace_loc` and bump counters in `stats`. All optional — a null tracer /
  // registry costs one branch per site. The engine's fault handler caches the
  // counters of the last `stats` it saw and recognizes it by address, so a
  // registry passed here must stay alive while the engine is in use.
  obs::Tracer* tracer = nullptr;
  obs::Loc trace_loc;
  obs::SpanId trace_parent = obs::kInvalidSpanId;
  obs::Registry* stats = nullptr;
};

struct RestoreOutcome {
  std::unique_ptr<FunctionInstance> instance;
  StartupBreakdown startup;
};

// Records one completed restore-phase detail span ("sandbox.cold",
// "mmt.attach", ...) under ctx.trace_parent. Returns the span for further
// annotation (kInvalidSpanId when tracing is off).
inline obs::SpanId TracePhase(RestoreContext& ctx, std::string_view name, SimTime start,
                              SimDuration duration) {
  if (ctx.tracer == nullptr) {
    return obs::kInvalidSpanId;
  }
  return ctx.tracer->RecordSpanAt(ctx.trace_loc, name, "restore", start, duration,
                                  ctx.trace_parent);
}

class RestoreEngine {
 public:
  virtual ~RestoreEngine() = default;

  virtual std::string_view name() const = 0;

  // Offline preprocessing (step A): snapshot creation, dedup, templates.
  virtual Status Prepare(const FunctionProfile& profile);

  // Online restoration (step B): produce a runnable instance.
  virtual Result<RestoreOutcome> Restore(const FunctionProfile& profile,
                                         RestoreContext& ctx) = 0;

  // Execution-phase page work for one invocation on `instance`. Mutates the
  // instance's page tables (faults make pages resident) and returns the
  // latency/CPU overheads the invocation pays.
  virtual Result<ExecutionOverheads> OnExecute(const FunctionProfile& profile,
                                               FunctionInstance& instance, RestoreContext& ctx);

  // Called when the invocation's execution finishes (closes fetch streams).
  virtual void OnExecuteDone(FunctionInstance& instance);

  // Called when the node hosting this engine crashes: discard any
  // per-instance bookkeeping (open fetch streams) without orderly teardown.
  // Prepared snapshots/templates survive — they live in the shared pool.
  virtual void OnCrash() {}

  // Tears an instance down (keep-alive eviction), releasing local memory.
  // Engines that pool sandboxes reclaim them here.
  virtual void Retire(std::unique_ptr<FunctionInstance> instance, RestoreContext& ctx);

 protected:
  // Vector index by the profile's interned id.
  const FunctionSnapshot* SnapshotFor(const FunctionProfile& profile) const {
    return SnapshotById(FunctionIdOf(profile));
  }
  const FunctionSnapshot* SnapshotById(FunctionId id) const {
    return id < snapshots_.size() ? snapshots_[id].get() : nullptr;
  }

  // Builds the instance's processes with all image pages resident in local
  // DRAM (what copy-based restoration produces).
  Status MaterializeLocal(const FunctionSnapshot& snapshot, FunctionInstance& instance,
                          RestoreContext& ctx);
  // Builds processes with only VMAs (no resident pages); pages arrive later
  // (prefetch, faults, or an mm-template attach supplies the mappings).
  Status MaterializeLayoutOnly(const FunctionSnapshot& snapshot, FunctionInstance& instance,
                               RestoreContext& ctx, bool add_vmas);

  // Per-invocation page touches derived from the profile's PageProfile,
  // executed through the fault handler against every process.
  Result<BulkAccessStats> TouchInvocationPages(const FunctionProfile& profile,
                                               FunctionInstance& instance, RestoreContext& ctx);

  // Indexed by FunctionId (global id space — may be sparse); null = never
  // prepared. unique_ptr keeps snapshot addresses stable across growth.
  std::vector<std::unique_ptr<FunctionSnapshot>> snapshots_;

 private:
  // The engine's one fault handler, bound to the frames, backends and
  // registry of the contexts that touch pages. A node owns one engine and
  // hands it the same three every time, so the cached counters and scratch
  // serve the whole run; a context naming different ones rebinds it.
  std::optional<FaultHandler> fault_handler_;
};

// faasd-style cold start: full sandbox creation + interpreter bootstrap.
class ColdStartEngine : public RestoreEngine {
 public:
  ColdStartEngine(SandboxFactory* factory, SandboxPool* pool) : factory_(factory), pool_(pool) {}

  std::string_view name() const override { return "faasd"; }
  Result<RestoreOutcome> Restore(const FunctionProfile& profile, RestoreContext& ctx) override;

 private:
  SandboxFactory* factory_;
  SandboxPool* pool_;  // only for overlay assembly, not sandbox reuse
};

// Vanilla CRIU: sandbox creation + copy-based memory restoration from a
// snapshot held in a DRAM/CXL tmpfs.
class VanillaCriuEngine : public RestoreEngine {
 public:
  VanillaCriuEngine(SandboxFactory* factory, SandboxPool* pool)
      : factory_(factory), pool_(pool) {}

  std::string_view name() const override { return "criu"; }
  Result<RestoreOutcome> Restore(const FunctionProfile& profile, RestoreContext& ctx) override;

 private:
  SandboxFactory* factory_;
  SandboxPool* pool_;
};

}  // namespace trenv

#endif  // TRENV_CRIU_RESTORE_ENGINE_H_
