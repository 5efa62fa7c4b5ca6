// PipelineDriver: runs stateful pipeline workloads (src/workload/pipeline.h)
// over a Cluster under one of three payload data planes:
//
//   * kTrEnvShared — payloads live in shared pool regions (RegionManager).
//     Chain edges hand off by ownership transfer (metadata-only unless the
//     region must migrate between pool homes); fan-out edges open leased
//     reader mappings and load straight from the pool; fan-in upgrades
//     ownership, revoking the readers.
//   * kCopyThroughWorker — every edge serializes the payload out of the
//     producer sandbox and into the consumer sandbox over the worker NICs
//     (two crossings of the payload per edge).
//   * kNasRoundtrip — every edge persists to NAS and reads back (two
//     crossings at NAS bandwidth).
//
// The driver interleaves its own step scheduler with the cluster's clocks
// through the pipeline-driver hooks: stage completions are observed via
// CompletionFn callbacks, data-plane costs are charged between a stage's
// readiness and its successor's submission, and node fault plans merge into
// the same loop — so a region-owner crash mid-pipeline exercises lease-based
// recovery with zero accepted-invocation loss.
#ifndef TRENV_SHSTATE_PIPELINE_DRIVER_H_
#define TRENV_SHSTATE_PIPELINE_DRIVER_H_

#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/platform/cluster.h"
#include "src/sim/event_scheduler.h"
#include "src/workload/pipeline.h"

namespace trenv {

enum class DataPlaneMode : uint8_t {
  kTrEnvShared,
  kCopyThroughWorker,
  kNasRoundtrip,
};
const char* DataPlaneModeName(DataPlaneMode mode);

struct PipelineRunStats {
  uint64_t jobs = 0;
  uint64_t jobs_completed = 0;
  uint64_t stages_completed = 0;
  // Fabric bytes moved to hand payloads between stages — the headline fig27
  // metric. Baselines: two payload crossings per edge (NIC or NAS). TrEnv:
  // pool-to-pool migrations only; owner stores and reader loads go over the
  // memory-attached CXL path and are reported separately below.
  uint64_t handoff_bytes = 0;
  uint64_t pool_write_bytes = 0;  // TrEnv owner write-through (pool traffic)
  uint64_t refetch_bytes = 0;     // TrEnv reader re-fetches after revocation
  uint64_t transfers = 0;
  uint64_t migrations = 0;
  uint64_t invalidations = 0;
  uint64_t ownership_recoveries = 0;
  Histogram job_latency_ms;  // arrival -> final-stage completion
};

class PipelineDriver {
 public:
  // `cluster` must outlive the driver. kTrEnvShared requires the cluster's
  // shared-state plane (ClusterConfig::shstate.enabled).
  PipelineDriver(Cluster* cluster, DataPlaneMode mode);
  PipelineDriver(const PipelineDriver&) = delete;
  PipelineDriver& operator=(const PipelineDriver&) = delete;

  // One traversal of `spec` per arrival; every stage function must already
  // be deployed. Runs the cluster to completion (single-use per driver).
  [[nodiscard]] Status Run(const PipelineSpec& spec,
                           const std::vector<SimTime>& arrivals);

  const PipelineRunStats& stats() const { return stats_; }

 private:
  struct JobState {
    SimTime arrival;
    RegionId region = kInvalidRegionId;
    std::vector<uint32_t> waiting;   // unfinished predecessors per stage
    std::vector<SimTime> ready;      // latest predecessor-output time
    std::vector<int32_t> done_node;  // completion node per stage (-1 pending)
    uint32_t stages_done = 0;
  };

  // Schedules `step` on the driver's timeline at `when`. Once a step has
  // failed, every later step is skipped and Run returns the first failure.
  template <typename Step>
  void At(SimTime when, Step step);
  uint32_t PickAliveNode(uint32_t preferred) const;
  SimDuration BaselineEdgeCost(uint64_t payload_bytes) const;
  Status OnStageDone(const PipelineSpec& spec, uint32_t job, uint32_t stage,
                     uint32_t node, SimTime when);
  Status OnLaunch(const PipelineSpec& spec, uint32_t job, uint32_t stage,
                  SimTime when);

  Cluster* cluster_;
  DataPlaneMode mode_;
  std::vector<std::vector<uint32_t>> succs_;
  std::vector<FunctionId> stage_functions_;  // per stage, interned once per Run
  std::vector<JobState> jobs_;
  // Fault events, launches and stage completions, in (time, scheduling
  // order). Separate from the rack clock: a step submits to the cluster,
  // which may advance the rack clock itself.
  EventScheduler steps_;
  Status status_;  // the first failing step's error; OK until one fails
  PipelineRunStats stats_;
};

}  // namespace trenv

#endif  // TRENV_SHSTATE_PIPELINE_DRIVER_H_
