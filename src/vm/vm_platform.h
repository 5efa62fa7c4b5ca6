// AgentVmPlatform: the VM-based agent-serving platform of paper section 6,
// driving E2B / E2B+ / vanilla CH / TrEnv / TrEnv-S configurations through
// the DES with CPU overcommitment (e.g. 200 agents on 20 physical cores).
//
// Each launched agent gets a microVM (startup per Fig 23), replays its
// recorded LLM trace (deterministic execution), reads files through its
// storage stack (page-cache behaviour per Fig 15/16), and optionally shares
// a browser instance (section 6.2).
#ifndef TRENV_VM_VM_PLATFORM_H_
#define TRENV_VM_VM_PLATFORM_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/agents/browser.h"
#include "src/agents/llm_trace.h"
#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/obs/trace.h"
#include "src/sim/cpu.h"
#include "src/sim/event_scheduler.h"
#include "src/vm/micro_vm.h"

namespace trenv {

struct AgentPlatformConfig {
  double cores = 20;  // overcommit target of section 9.6
  uint64_t seed = 42;
  // Optional tracer; the platform registers as one trace process. Not owned.
  obs::Tracer* tracer = nullptr;
  std::string trace_process = "agent-vm";
};

struct AgentMetrics {
  Histogram e2e_s;       // end-to-end execution latency (seconds)
  Histogram startup_ms;  // VM startup latency
  uint64_t runs = 0;
  uint64_t repurposed = 0;
  uint64_t peak_local_bytes = 0;  // peak per-VM local memory seen
};

class AgentVmPlatform {
 public:
  AgentVmPlatform(VmSystemConfig system, AgentPlatformConfig config = {});
  AgentVmPlatform(const AgentVmPlatform&) = delete;
  AgentVmPlatform& operator=(const AgentVmPlatform&) = delete;

  const VmSystemConfig& system() const { return system_; }

  // Records the agent's deterministic LLM trace (done once per agent).
  Status DeployAgent(const AgentProfile& profile);
  // Launches one instance of `agent` at absolute time t.
  Status SubmitLaunch(SimTime t, const std::string& agent);
  void RunToCompletion() { scheduler_.RunUntilIdle(); }

  EventScheduler& scheduler() { return scheduler_; }
  FairShareCpu& cpu() { return cpu_; }
  PageCache& host_cache() { return host_cache_; }
  SharedBrowserPool& browsers() { return browsers_; }
  TimeSeriesGauge& memory_gauge() { return memory_gauge_; }
  // Every memory sample as (seconds, bytes), for plotting the timeline.
  const std::vector<std::pair<double, double>>& memory_series() const {
    return memory_series_;
  }
  const std::map<std::string, AgentMetrics>& metrics() const { return metrics_; }
  AgentMetrics& MetricsFor(const std::string& agent) { return metrics_[agent]; }
  uint64_t completed_runs() const { return completed_; }
  uint32_t pooled_sandboxes() const { return pooled_sandboxes_; }
  const AgentTrace* TraceFor(const std::string& agent) const;

 private:
  struct Deployment {
    AgentProfile profile;
    AgentTrace trace;
    FileId base_file;
  };
  struct Run {
    const Deployment* deployment = nullptr;
    std::unique_ptr<MicroVm> vm;
    size_t step = 0;
    uint64_t base_read_offset_pages = 0;
    SimTime submit_time;
    SimTime exec_start;
    VmStartupBreakdown startup;
    Browser* browser = nullptr;
    double memory_scale = 1.0;  // shaves the in-VM browser share when shared
    obs::SpanId root_span = obs::kInvalidSpanId;
  };

  void StartRun(uint64_t token);
  void BeginExecution(uint64_t token);
  void AdvanceStep(uint64_t token);
  void FinishRun(uint64_t token);
  void RecomputeMemory();

  VmSystemConfig system_;
  AgentPlatformConfig config_;
  obs::Tracer* tracer_ = nullptr;
  obs::ProcessId trace_pid_ = 0;
  EventScheduler scheduler_;
  FairShareCpu cpu_;
  PageCache host_cache_;
  SharedBrowserPool browsers_;
  TimeSeriesGauge memory_gauge_;
  std::vector<std::pair<double, double>> memory_series_;
  std::map<std::string, Deployment> deployments_;
  std::map<std::string, AgentMetrics> metrics_;
  std::map<uint64_t, Run> runs_;
  uint64_t next_token_ = 1;
  uint64_t next_vm_id_ = 1;
  uint32_t concurrent_startups_ = 0;
  uint32_t pooled_sandboxes_ = 0;
  uint64_t completed_ = 0;
};

}  // namespace trenv

#endif  // TRENV_VM_VM_PLATFORM_H_
