// ServerlessPlatform: a faasd-like single-node platform driving one restore
// engine through a discrete-event simulation.
//
// Per invocation:
//   arrival -> warm hit? -> execution
//           -> restore (sandbox / process / memory phases) -> execution
//   execution = engine page work + CPU burst on the fair-share CPU + I/O wait
//   completion -> instance parked in the keep-alive pool (TTL + LRU + a soft
//   node memory cap that evicts idle instances under pressure)
//
// All evaluated systems run through this same loop; only the engine differs,
// exactly like the paper's methodology.
#ifndef TRENV_PLATFORM_PLATFORM_H_
#define TRENV_PLATFORM_PLATFORM_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/cost_model.h"
#include "src/criu/restore_engine.h"
#include "src/density/density_manager.h"
#include "src/platform/function_registry.h"
#include "src/platform/keep_alive_pool.h"
#include "src/platform/metrics.h"
#include "src/platform/prewarm.h"
#include "src/runtime/execution_model.h"
#include "src/sim/cpu.h"
#include "src/sim/event_scheduler.h"
#include "src/workload/arrival.h"

namespace trenv {

struct PlatformConfig {
  uint64_t soft_mem_cap_bytes = cost::kDefaultSoftMemCap;
  SimDuration keep_alive_ttl = cost::kKeepAliveTtl;
  uint64_t seed = 42;
  // Optional histogram-based keep-alive/pre-warm policy (Shahrad et al.) —
  // the caching-strategy baseline of section 10. Null = fixed TTL, no
  // pre-warming (the paper's default policy). Not owned.
  PrewarmPolicy* prewarm = nullptr;
  // Optional tracer; the platform registers itself as one trace process
  // (named `trace_process`) clocked by its own scheduler. Not owned.
  obs::Tracer* tracer = nullptr;
  std::string trace_process = "platform";
  // Density tiering (off by default; see src/density/density_manager.h).
  // When disabled the platform takes its historical code paths verbatim.
  DensityConfig density;
  // Which cluster node this platform is (reported to completion callbacks so
  // a pipeline driver knows where an invocation actually finished — after a
  // crash re-dispatch that differs from where it was submitted).
  uint32_t node_index = 0;
  // Working-set-guided batched prefetch on the TrEnv attach path (only
  // meaningful for mm-template systems; Testbed and Cluster thread it into
  // TrEnvEngine::Options::prefetch). Off by default: disabled runs take the
  // historical code paths byte-identically.
  bool trenv_prefetch = false;
};

// Invoked when an invocation completes successfully: the completing node's
// index and the virtual completion time. Carried through crash re-dispatch,
// so pipeline successors fire exactly once per accepted invocation.
using CompletionFn = std::function<void(uint32_t node, SimTime when)>;

// An invocation a crashed node accepted but had not completed: the cluster
// re-dispatches these to surviving nodes. The acceptance ticket makes
// (arrival, ticket) a strict total order, so failover re-dispatch order is
// deterministic even when queued and in-flight invocations share an arrival
// time (required for sharded replay to match the sequential run).
struct LostInvocation {
  FunctionId function = kInvalidFunctionId;
  SimTime arrival;
  uint64_t ticket = 0;
  CompletionFn on_complete;  // preserved across re-dispatch (may be null)
};

class ServerlessPlatform {
 public:
  ServerlessPlatform(PlatformConfig config, RestoreEngine* engine,
                     const BackendRegistry* backends);
  ServerlessPlatform(const ServerlessPlatform&) = delete;
  ServerlessPlatform& operator=(const ServerlessPlatform&) = delete;

  // Deploys a function: registers it and runs the engine's preprocessing.
  [[nodiscard]] Status Deploy(const FunctionProfile& profile);

  // Schedules one invocation of a deployed function at `arrival` (absolute
  // virtual time); kNotFound if `function` is not deployed here. The optional
  // completion callback fires on success only (failure paths drop it and
  // count failed_invocations instead).
  [[nodiscard]] Status Submit(SimTime arrival, FunctionId function,
                              CompletionFn on_complete = {});
  // Schedules a whole workload and runs the simulation to completion.
  [[nodiscard]] Status Run(const Schedule& schedule);
  // Runs whatever is scheduled without submitting more work.
  void RunToCompletion();

  // Node failure: drops all node-local state (pending events, CPU bursts,
  // warm instances, sandboxes' frames) and returns every accepted-but-
  // incomplete invocation, queued or running, sorted by (arrival, ticket),
  // for re-dispatch elsewhere.
  // Deployed functions and engine snapshots survive — they live in the
  // shared pool / control plane, which is the paper's cross-node story.
  std::vector<LostInvocation> Crash();

  // Scales the soft memory cap (injected pool pressure); 1.0 restores the
  // configured cap and is exactly the fault-free behaviour. Scales are
  // clamped below at cost::kSoftMemCapScaleFloor so a pressure window can
  // squeeze but never erase the cap; the effective cap is exported as the
  // "platform.soft_mem_cap_bytes" gauge.
  void SetSoftMemCapScale(double scale);

  MetricsCollector& metrics() { return metrics_; }
  const MetricsCollector& metrics() const { return metrics_; }
  EventScheduler& scheduler() { return scheduler_; }
  FrameAllocator& frames() { return frames_; }
  FairShareCpu& cpu() { return cpu_; }
  RestoreEngine* engine() { return engine_; }
  const FunctionRegistry& registry() { return registry_; }
  uint32_t concurrent_startups() const { return concurrent_startups_; }
  uint64_t failed_invocations() const { return failed_invocations_; }
  // Warm-instance inventory; locality-aware dispatch reads CountFor().
  const KeepAlivePool& keep_alive() const { return keep_alive_; }
  DensityManager& density() { return density_; }
  const DensityManager& density() const { return density_; }
  obs::Tracer* tracer() const { return tracer_; }
  obs::ProcessId trace_pid() const { return trace_pid_; }

  // Drains the keep-alive pool (end-of-experiment accounting).
  void EvictAllIdle();

 private:
  // One accepted invocation, from Submit until it completes, fails or its
  // node crashes. Queued until its arrival event fires, running after.
  struct InFlight {
    // Resolved once at Submit: the deployed profile (stable registry entry),
    // whose id and name serve every later callback.
    const FunctionProfile* profile = nullptr;
    CompletionFn on_complete;
    // The invocation's arrival.
    SimTime arrival;
    // Trace track, stamped when the arrival fires: tracks number startups in
    // start order (pre-warms draw from the same counter).
    uint64_t track = 0;
    SimTime exec_start;
    StartupBreakdown startup;
    std::unique_ptr<FunctionInstance> instance;
    bool warm = false;
    // Tier-promotion fetch paid on a warm take (zero when density is off or
    // the instance was already DRAM-hot); recorded as the warm startup cost.
    SimDuration promote_latency;
    // Root "invocation" span and the currently open phase child — span ids
    // persist across the scheduler callbacks that play the phases out.
    obs::SpanId root_span = obs::kInvalidSpanId;
    obs::SpanId phase_span = obs::kInvalidSpanId;
  };

  RestoreContext MakeContext();
  // The (process, track) pair all of one invocation's spans live on.
  obs::Loc TraceLoc(uint64_t track) const { return {trace_pid_, track}; }
  // Each step takes the invocation's acceptance ticket.
  void StartInvocation(uint64_t ticket);
  void BeginStartupPhases(uint64_t ticket);
  void BeginExecution(uint64_t ticket);
  void Complete(uint64_t ticket);
  void SampleMemory();
  void EnforceMemoryCap();
  // The soft cap after the current pressure scale (clamped at the floor).
  uint64_t EffectiveCap() const;
  void RetireInstance(std::unique_ptr<FunctionInstance> instance);
  // Parks a warm instance for `ttl` — completed invocations and pre-warms
  // alike: stamps its density footprint, schedules the TTL sweep that
  // expires it, and (density on) enforces the cap the park may break.
  void Park(std::unique_ptr<FunctionInstance> instance, SimDuration ttl);
  // Pre-warm machinery (active only with a PrewarmPolicy configured).
  void MaybeSchedulePrewarm(FunctionId function);
  void PrewarmNow(FunctionId function);

  PlatformConfig config_;
  RestoreEngine* engine_;
  const BackendRegistry* backends_;

  EventScheduler scheduler_;
  FairShareCpu cpu_;
  FrameAllocator frames_;
  PidAllocator pids_;
  FunctionRegistry registry_;
  KeepAlivePool keep_alive_;
  MetricsCollector metrics_;
  ExecutionModel exec_model_;
  DensityManager density_;

  obs::Tracer* tracer_ = nullptr;
  obs::ProcessId trace_pid_ = 0;

  // Every accepted invocation, keyed by its acceptance ticket: a crash hands
  // back queued and running work alike from this one map. Hashed, because a
  // whole trace submitted up front keeps every record here at once.
  std::unordered_map<uint64_t, InFlight> inflight_;
  uint64_t next_ticket_ = 1;
  uint64_t next_track_ = 1;
  uint32_t concurrent_startups_ = 0;
  uint64_t failed_invocations_ = 0;
  double mem_cap_scale_ = 1.0;
  obs::Gauge* soft_cap_gauge_ = nullptr;  // created on first pressure change
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_PLATFORM_H_
