#include "src/vm/vm_platform.h"

#include <algorithm>
#include <utility>

#include "src/common/cost_model.h"
#include "src/common/log.h"

namespace trenv {

namespace {
// Stable file identity for an agent's base image content.
FileId BaseFileFor(const std::string& agent) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : agent) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return static_cast<FileId>(h & 0x7fffff);
}
}  // namespace

AgentVmPlatform::AgentVmPlatform(VmSystemConfig system, AgentPlatformConfig config)
    : system_(std::move(system)),
      config_(config),
      cpu_(&scheduler_, config.cores),
      host_cache_("host"),
      browsers_(system_.agents_per_browser) {
  if (config_.tracer != nullptr) {
    tracer_ = config_.tracer;
    trace_pid_ = tracer_->RegisterProcess(config_.trace_process,
                                          [this] { return scheduler_.now(); });
  }
}

Status AgentVmPlatform::DeployAgent(const AgentProfile& profile) {
  if (deployments_.contains(profile.name)) {
    return Status::AlreadyExists("agent already deployed: " + profile.name);
  }
  Deployment deployment;
  deployment.profile = profile;
  deployment.trace = RecordTrace(profile, config_.seed);
  deployment.base_file = BaseFileFor(profile.name);
  deployments_.emplace(profile.name, std::move(deployment));
  return Status::Ok();
}

const AgentTrace* AgentVmPlatform::TraceFor(const std::string& agent) const {
  auto it = deployments_.find(agent);
  return it == deployments_.end() ? nullptr : &it->second.trace;
}

Status AgentVmPlatform::SubmitLaunch(SimTime t, const std::string& agent) {
  auto it = deployments_.find(agent);
  if (it == deployments_.end()) {
    return Status::NotFound("no such agent: " + agent);
  }
  const uint64_t token = next_token_++;
  Run& run = runs_[token];
  run.deployment = &it->second;
  run.submit_time = t;
  scheduler_.ScheduleAt(t, [this, token] { StartRun(token); });
  return Status::Ok();
}

void AgentVmPlatform::StartRun(uint64_t token) {
  Run& run = runs_.at(token);
  const AgentProfile& profile = run.deployment->profile;

  const bool sandbox_available = pooled_sandboxes_ > 0;
  run.startup =
      ComputeVmStartup(system_, profile, concurrent_startups_, sandbox_available);
  if (run.startup.sandbox_repurposed) {
    --pooled_sandboxes_;
  }
  ++concurrent_startups_;

  if (tracer_ != nullptr) {
    const obs::Loc loc{trace_pid_, token};
    run.root_span = tracer_->StartSpan(loc, "agent.run", "agent");
    tracer_->Annotate(run.root_span, "agent", profile.name);
    tracer_->Annotate(run.root_span, "repurposed",
                      static_cast<int64_t>(run.startup.sandbox_repurposed ? 1 : 0));
    // Boot phases play out back-to-back starting now (Fig 23 decomposition).
    SimTime t = scheduler_.now();
    const std::pair<const char*, SimDuration> phases[] = {
        {"boot.network", run.startup.network}, {"boot.cgroup", run.startup.cgroup},
        {"boot.vmm", run.startup.vmm},         {"boot.memory", run.startup.memory},
        {"boot.guest", run.startup.guest}};
    for (const auto& [name, duration] : phases) {
      tracer_->RecordSpanAt(loc, name, "boot", t, duration, run.root_span);
      t = t + duration;
    }
  }

  run.vm = std::make_unique<MicroVm>(next_vm_id_++, &profile, &system_, &host_cache_,
                                     run.deployment->base_file);
  // The in-VM browser share moves into the shared browser when sharing is on.
  if (system_.browser_sharing && profile.uses_browser) {
    run.memory_scale = 1.0 - static_cast<double>(kBrowserBaseBytes) /
                                 static_cast<double>(profile.dynamic_memory_bytes);
    run.memory_scale = std::max(0.1, run.memory_scale);
  }
  RecomputeMemory();

  scheduler_.ScheduleAfter(run.startup.Total(), [this, token] {
    --concurrent_startups_;
    BeginExecution(token);
  });
}

void AgentVmPlatform::BeginExecution(uint64_t token) {
  Run& run = runs_.at(token);
  run.exec_start = scheduler_.now();
  MetricsFor(run.deployment->profile.name).startup_ms.Record(run.startup.Total().millis());
  if (run.startup.sandbox_repurposed) {
    MetricsFor(run.deployment->profile.name).repurposed += 1;
  }
  if (system_.browser_sharing && run.deployment->profile.uses_browser) {
    run.browser = browsers_.Acquire();
    RecomputeMemory();
  }
  AdvanceStep(token);
}

void AgentVmPlatform::AdvanceStep(uint64_t token) {
  Run& run = runs_.at(token);
  if (run.step >= run.deployment->trace.steps.size()) {
    FinishRun(token);
    return;
  }
  const AgentStep& step = run.deployment->trace.steps[run.step++];

  if (const auto* llm = std::get_if<LlmCallStep>(&step)) {
    // Waiting on the (replayed) inference server: no CPU consumed.
    if (tracer_ != nullptr) {
      tracer_->RecordSpanAt({trace_pid_, token}, "llm.call", "agent", scheduler_.now(),
                            llm->response_latency, run.root_span);
    }
    scheduler_.ScheduleAfter(llm->response_latency, [this, token] { AdvanceStep(token); });
    return;
  }

  const auto& tool = std::get<ToolStep>(step);
  // Memory allocation happens up front.
  const auto scaled_delta = static_cast<int64_t>(
      static_cast<double>(tool.memory_delta_bytes) * run.memory_scale);
  run.vm->ApplyMemoryDelta(scaled_delta);

  // File I/O through the storage stack: mostly base-image reads, a slice of
  // freshly written data.
  SimDuration io_latency = tool.io;
  if (tool.file_read_bytes > 0) {
    const uint64_t total_pages = BytesToPages(tool.file_read_bytes);
    const uint64_t base_pages = total_pages * 85 / 100;
    const uint64_t write_pages = total_pages - base_pages;
    GuestReadOutcome base = run.vm->storage().ReadBase(run.base_read_offset_pages, base_pages);
    run.base_read_offset_pages += base_pages;
    GuestReadOutcome written = run.vm->storage().WriteAndReadBack(write_pages);
    io_latency += base.latency + written.latency;
  }
  RecomputeMemory();

  // CPU demand: browser work on a shared instance is cheaper per agent.
  double cpu_factor = 1.0;
  if (tool.uses_browser && system_.browser_sharing) {
    cpu_factor = kSharedBrowserCpuFactor;
  }
  const SimDuration cpu_work = tool.cpu * cpu_factor;
  obs::SpanId tool_span = obs::kInvalidSpanId;
  if (tracer_ != nullptr) {
    tool_span = tracer_->StartSpan({trace_pid_, token}, "tool.step", "agent");
    tracer_->Annotate(tool_span, "io_ms", io_latency.millis());
    tracer_->Annotate(tool_span, "read_bytes", static_cast<int64_t>(tool.file_read_bytes));
    tracer_->Annotate(tool_span, "browser", static_cast<int64_t>(tool.uses_browser ? 1 : 0));
  }
  cpu_.Submit(cpu_work, [this, token, io_latency, tool_span] {
    scheduler_.ScheduleAfter(io_latency, [this, token, tool_span] {
      if (tracer_ != nullptr) {
        tracer_->EndSpan(tool_span);
      }
      AdvanceStep(token);
    });
  });
}

void AgentVmPlatform::FinishRun(uint64_t token) {
  Run& run = runs_.at(token);
  const std::string agent = run.deployment->profile.name;
  AgentMetrics& metrics = MetricsFor(agent);
  metrics.runs += 1;
  metrics.e2e_s.Record((scheduler_.now() - run.exec_start).seconds());
  metrics.peak_local_bytes = std::max(metrics.peak_local_bytes, run.vm->LocalBytes());
  ++completed_;

  if (tracer_ != nullptr) {
    tracer_->EndSpan(run.root_span);
  }
  if (run.browser != nullptr) {
    browsers_.Release(run.browser);
    run.browser = nullptr;
  }
  // Tear the VM down: guest memory and private caches are released; the
  // hypervisor sandbox returns to the pool (TrEnv) or is discarded.
  run.vm->storage().DropCaches();
  if (system_.pooled_sandbox) {
    ++pooled_sandboxes_;
  }
  runs_.erase(token);
  RecomputeMemory();
}

void AgentVmPlatform::RecomputeMemory() {
  uint64_t total = host_cache_.cached_bytes() + browsers_.TotalMemoryBytes();
  for (const auto& [token, run] : runs_) {
    if (run.vm != nullptr) {
      total += run.vm->LocalBytes();
    }
  }
  memory_gauge_.Set(scheduler_.now(), static_cast<double>(total));
  memory_series_.emplace_back(scheduler_.now().seconds(), static_cast<double>(total));
}

}  // namespace trenv
