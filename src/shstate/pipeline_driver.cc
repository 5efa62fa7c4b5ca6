#include "src/shstate/pipeline_driver.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/cost_model.h"
#include "src/common/units.h"

namespace trenv {

const char* DataPlaneModeName(DataPlaneMode mode) {
  switch (mode) {
    case DataPlaneMode::kTrEnvShared:
      return "trenv-shared";
    case DataPlaneMode::kCopyThroughWorker:
      return "copy-worker";
    case DataPlaneMode::kNasRoundtrip:
      return "nas-roundtrip";
  }
  return "unknown";
}

PipelineDriver::PipelineDriver(Cluster* cluster, DataPlaneMode mode)
    : cluster_(cluster), mode_(mode) {}

template <typename Step>
void PipelineDriver::At(SimTime when, Step step) {
  steps_.ScheduleAt(when, [this, step = std::move(step)] {
    if (status_.ok()) {
      status_ = step();
    }
  });
}

uint32_t PipelineDriver::PickAliveNode(uint32_t preferred) const {
  const uint32_t n = static_cast<uint32_t>(cluster_->node_count());
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t candidate = (preferred + k) % n;
    if (cluster_->node_alive(candidate)) {
      return candidate;
    }
  }
  // Every node is mid-crash-window; the cluster parks the submit until a
  // restart, so the hint only has to be in range.
  return preferred % n;
}

SimDuration PipelineDriver::BaselineEdgeCost(uint64_t payload_bytes) const {
  const double bw = mode_ == DataPlaneMode::kNasRoundtrip
                        ? cost::kPipelineNasBytesPerSec
                        : cost::kPipelineWorkerCopyBytesPerSec;
  // The producer writes the payload out and the consumer reads it back: two
  // full crossings per edge, payloads round-tripping through sandboxes.
  return cost::kPipelineHandoffMetadata +
         SimDuration::FromSecondsF(2.0 * static_cast<double>(payload_bytes) / bw);
}

Status PipelineDriver::OnStageDone(const PipelineSpec& spec, uint32_t job,
                                   uint32_t stage, uint32_t node, SimTime when) {
  JobState& js = jobs_[job];
  js.done_node[stage] = static_cast<int32_t>(node);
  ++stats_.stages_completed;
  SimTime t = when;
  RegionManager* sh = cluster_->shared_state();
  if (!succs_[stage].empty() && mode_ == DataPlaneMode::kTrEnvShared) {
    if (sh == nullptr) {
      return Status::InvalidArgument("trenv-shared mode requires ClusterConfig::shstate.enabled");
    }
    // The stage publishes its output into the job's region. The first
    // producer creates it; any other stage upgrades to ownership first (a
    // fan-in write revokes every branch's reader mapping).
    if (js.region == kInvalidRegionId) {
      TRENV_ASSIGN_OR_RETURN(
          js.region, sh->CreateRegion(spec.name + "-job" + std::to_string(job),
                                      spec.payload_pages, node));
      t += cost::kShStateMapMetadata;
    } else if (sh->OwnerOf(js.region) != static_cast<int32_t>(node)) {
      TRENV_ASSIGN_OR_RETURN(RegionOp upgrade, sh->AcquireOwnership(js.region, node, t));
      t += upgrade.latency;
      stats_.handoff_bytes += upgrade.moved_bytes;
    }
    TRENV_ASSIGN_OR_RETURN(RegionOp write, sh->WriteRegion(js.region, node, t));
    t += write.latency;
  }
  for (uint32_t s : succs_[stage]) {
    js.ready[s] = std::max(js.ready[s], t);
    if (--js.waiting[s] == 0) {
      const SimTime ready = js.ready[s];
      At(ready, [this, &spec, job, s, ready] { return OnLaunch(spec, job, s, ready); });
    }
  }
  if (++js.stages_done == spec.stages.size()) {
    ++stats_.jobs_completed;
    stats_.job_latency_ms.Record((when - js.arrival).millis());
    if (js.region != kInvalidRegionId && sh != nullptr) {
      TRENV_RETURN_IF_ERROR(sh->DestroyRegion(js.region));
      js.region = kInvalidRegionId;
    }
  }
  return Status::Ok();
}

Status PipelineDriver::OnLaunch(const PipelineSpec& spec, uint32_t job,
                                uint32_t stage, SimTime when) {
  JobState& js = jobs_[job];
  const PipelineStage& st = spec.stages[stage];
  const uint64_t payload_bytes = spec.payload_pages * kPageSize;
  // Placement follows the data. Sources spread jobs round-robin; a chain
  // successor stays on the payload owner's node (metadata-only handoff);
  // fan-out branches fan across nodes from the producer so they overlap.
  uint32_t target;
  if (st.inputs.empty()) {
    target = job % static_cast<uint32_t>(cluster_->node_count());
  } else {
    const uint32_t pred = st.inputs.front();
    const int32_t pred_node = js.done_node[pred];
    target = pred_node < 0 ? 0 : static_cast<uint32_t>(pred_node);
    const std::vector<uint32_t>& siblings = succs_[pred];
    if (siblings.size() > 1) {
      uint32_t branch = 0;
      for (uint32_t i = 0; i < siblings.size(); ++i) {
        if (siblings[i] == stage) {
          branch = i;
          break;
        }
      }
      target = (target + branch) % static_cast<uint32_t>(cluster_->node_count());
    }
  }
  target = PickAliveNode(target);

  SimTime t = when;
  if (!st.inputs.empty()) {
    if (mode_ == DataPlaneMode::kTrEnvShared) {
      RegionManager* sh = cluster_->shared_state();
      if (sh == nullptr) {
        return Status::InvalidArgument("trenv-shared mode requires ClusterConfig::shstate.enabled");
      }
      if (js.region != kInvalidRegionId) {
        const bool exclusive =
            st.inputs.size() == 1 && succs_[st.inputs.front()].size() == 1;
        if (exclusive) {
          // Chain handoff: Nexus-style ownership transfer, metadata-only
          // unless the region migrates between pool homes. A vacant owner
          // means the producer's node crashed after publishing — lease-based
          // recovery re-acquires from the durable pool copy.
          const int32_t owner = sh->OwnerOf(js.region);
          if (owner < 0) {
            TRENV_ASSIGN_OR_RETURN(RegionOp op, sh->AcquireOwnership(js.region, target, t));
            t += op.latency;
            stats_.handoff_bytes += op.moved_bytes;
          } else if (owner != static_cast<int32_t>(target)) {
            TRENV_ASSIGN_OR_RETURN(
                RegionOp op,
                sh->Transfer(js.region, static_cast<uint32_t>(owner), target, t));
            t += op.latency;
            stats_.handoff_bytes += op.moved_bytes;
          }
        } else {
          // Fan-out / fan-in consumer: leased reader mapping, loads straight
          // from the pool (one mapping covers all this stage's input edges —
          // the job's region is the shared aggregation buffer).
          TRENV_ASSIGN_OR_RETURN(RegionOp open, sh->OpenReader(js.region, target, t));
          t += open.latency;
          TRENV_ASSIGN_OR_RETURN(RegionOp read, sh->ReadRegion(js.region, target, t));
          t += read.latency;
          stats_.handoff_bytes += read.moved_bytes;
        }
      }
    } else {
      for (size_t i = 0; i < st.inputs.size(); ++i) {
        t += BaselineEdgeCost(payload_bytes);
        stats_.handoff_bytes += 2 * payload_bytes;
      }
    }
  }

  Cluster::SubmitOptions options;
  options.preferred_node = static_cast<int32_t>(target);
  options.on_complete = [this, &spec, job, stage](uint32_t node, SimTime done) {
    At(done, [this, &spec, job, stage, node, done] {
      return OnStageDone(spec, job, stage, node, done);
    });
  };
  return cluster_->Submit(t, stage_functions_[stage], std::move(options));
}

Status PipelineDriver::Run(const PipelineSpec& spec,
                           const std::vector<SimTime>& arrivals) {
  if (spec.stages.empty()) {
    return Status::InvalidArgument("pipeline has no stages");
  }
  for (uint32_t i = 0; i < spec.stages.size(); ++i) {
    for (uint32_t input : spec.stages[i].inputs) {
      if (input >= i) {
        return Status::InvalidArgument("pipeline stages must be topologically ordered");
      }
    }
  }
  succs_.assign(spec.stages.size(), {});
  stage_functions_.clear();
  for (uint32_t i = 0; i < spec.stages.size(); ++i) {
    for (uint32_t input : spec.stages[i].inputs) {
      succs_[input].push_back(i);
    }
    stage_functions_.push_back(InternFunction(spec.stages[i].function));
  }
  jobs_.assign(arrivals.size(), JobState{});
  stats_ = PipelineRunStats{};
  stats_.jobs = arrivals.size();

  for (const FaultInjector::NodeEvent& event : cluster_->PlanFaultEvents()) {
    At(event.time, [this, event] {
      cluster_->ApplyFaultEvent(event);
      return Status::Ok();
    });
  }
  for (uint32_t j = 0; j < arrivals.size(); ++j) {
    JobState& js = jobs_[j];
    js.arrival = arrivals[j];
    js.waiting.resize(spec.stages.size());
    js.ready.assign(spec.stages.size(), arrivals[j]);
    js.done_node.assign(spec.stages.size(), -1);
    for (uint32_t i = 0; i < spec.stages.size(); ++i) {
      js.waiting[i] = static_cast<uint32_t>(spec.stages[i].inputs.size());
      if (spec.stages[i].inputs.empty()) {
        At(js.arrival, [this, &spec, j, i, when = js.arrival] {
          return OnLaunch(spec, j, i, when);
        });
      }
    }
  }

  // Interleave the steps with the cluster's clocks: run every step due at
  // `now`, then advance all clocks in lock-step to the next instant anything
  // (step or scheduled event) happens. Completion callbacks fire during
  // AdvanceClocksTo and schedule their steps at the very time the clocks
  // just reached.
  SimTime now;
  while (true) {
    steps_.RunUntil(now);
    TRENV_RETURN_IF_ERROR(status_);
    std::optional<SimTime> next = cluster_->NextEventTime();
    const std::optional<SimTime> step = steps_.NextEventTime();
    if (step.has_value() && (!next.has_value() || *step < *next)) {
      next = step;
    }
    if (!next.has_value()) {
      break;
    }
    now = *next;
    cluster_->AdvanceClocksTo(now);
  }
  cluster_->DrainAll();

  if (mode_ == DataPlaneMode::kTrEnvShared) {
    const RegionManager* sh = cluster_->shared_state();
    if (sh != nullptr) {
      stats_.pool_write_bytes = sh->pool_write_bytes();
      stats_.refetch_bytes = sh->refetch_bytes();
      stats_.transfers = sh->transfers();
      stats_.migrations = sh->migrations();
      stats_.invalidations = sh->invalidations();
      stats_.ownership_recoveries = sh->ownership_recoveries();
    }
  }
  return Status::Ok();
}

}  // namespace trenv
