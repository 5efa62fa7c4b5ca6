#include "src/platform/cluster.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <tuple>
#include <utility>

#include "src/common/interner.h"

namespace trenv {
namespace {

// The alive node with the smallest key, ties to the lowest index; the node
// count when none is alive. Each node's key is computed once per call: the
// best key so far is kept beside its index.
template <typename Nodes, typename KeyFn>
size_t ArgMinAlive(const Nodes& nodes, KeyFn key) {
  size_t best = nodes.size();
  std::optional<decltype(key(size_t{0}))> best_key;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i]->alive) {
      continue;
    }
    auto candidate = key(i);
    if (!best_key.has_value() || candidate < *best_key) {
      best = i;
      best_key = std::move(candidate);
    }
  }
  return best;
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      base_layer_(std::make_shared<FsLayer>("debian-base")),
      cxl_(std::make_unique<CxlPool>(cost::kRackCxlPoolBytes)) {
  backends_.Register(cxl_.get());
  tiered_.AddTier(cxl_.get());
  dedup_ = std::make_unique<SnapshotDedupStore>(&tiered_);
  // The shared device belongs to no single node; its fetch stats go to the
  // cluster-owned registry (never the process-wide one: concurrent clusters
  // in a parallel sweep would race on it).
  cxl_->BindStats(&stats_);
  if (!config_.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(config_.faults, stats_);
    cxl_->BindFaultInjector(injector_.get());
  }
  if (config_.poolmgr.enabled) {
    // Shard pulls ride their own RDMA fabric (not the MHD ports), so attach
    // traffic sees NIC-style load-dependent latency and fault injection.
    fabric_ = std::make_unique<RdmaPool>(cost::kRackCxlPoolBytes,
                                         config_.node_config.seed ^ 0xfab);
    fabric_->BindStats(&stats_);
    if (injector_ != nullptr) {
      fabric_->BindFaultInjector(injector_.get());
    }
    pool_mgr_ = std::make_unique<PoolManager>(config_.poolmgr, config_.nodes, fabric_.get(),
                                              &clock_, stats_);
    if (config_.poolctl.enabled) {
      // The continuous control plane runs on the rack clock from time zero;
      // it installs the continuous read/admission policy into the manager
      // and takes over crash/restart routing (see ApplyFaultEvent).
      pool_ctl_ = std::make_unique<PoolControlPlane>(config_.poolctl, pool_mgr_.get(),
                                                     &config_.faults, stats_,
                                                     config_.node_config.tracer);
      pool_ctl_->Start(SimTime());
    }
  }
  if (config_.shstate.enabled) {
    // Shared-state regions live on the same tiered pool as templates, and
    // the data plane schedules on the same rack clock as poolmgr.
    shstate_ = std::make_unique<RegionManager>(config_.shstate, config_.nodes, &tiered_,
                                               &backends_, &clock_, stats_);
  }

  for (uint32_t i = 0; i < config_.nodes; ++i) {
    // Each node occupies one port of the multi-headed device.
    (void)cxl_->AttachNode(i);
    auto node = std::make_unique<Node>();
    node->sandbox_factory =
        std::make_unique<SandboxFactory>(base_layer_, config_.node_config.seed ^ (0x5b + i));
    node->sandbox_pool = std::make_unique<SandboxPool>();
    node->mmt = std::make_unique<MmtApi>(&backends_);
    node->engine = std::make_unique<TrEnvEngine>(
        node->sandbox_factory.get(), node->sandbox_pool.get(), node->mmt.get(), dedup_.get(),
        TrEnvEngine::Options{.prefetch = config_.node_config.trenv_prefetch});
    PlatformConfig node_config = config_.node_config;
    node_config.seed ^= 0x900d + i;
    node_config.node_index = i;
    if (node_config.tracer != nullptr) {
      // Each node is its own trace process (clock domain): one swim lane per
      // node in the exported view.
      node_config.trace_process = "node" + std::to_string(i);
    }
    node->platform =
        std::make_unique<ServerlessPlatform>(node_config, node->engine.get(), &backends_);
    node->mmt->BindStats(&node->platform->metrics().registry());
    nodes_.push_back(std::move(node));
  }
  inboxes_.resize(nodes_.size());
}

Status Cluster::Deploy(const FunctionProfile& profile) {
  for (auto& node : nodes_) {
    node->sandbox_pool->RegisterFunctionLayer(
        profile.name, std::make_shared<FsLayer>(profile.name + "-deps"));
    // Every node runs Prepare; snapshot chunks dedup against the shared
    // store, so only the first node actually writes pool pages.
    TRENV_RETURN_IF_ERROR(node->platform->Deploy(profile));
  }
  if (pool_mgr_ != nullptr && !nodes_.empty()) {
    // Shard the deduplicated image across the pool nodes; RegisterTemplate
    // is idempotent, so one registration covers every node's deployment.
    const FunctionId fid = FunctionIdOf(profile);
    if (const ConsolidatedImage* image = nodes_[0]->engine->ImageFor(fid); image != nullptr) {
      pool_mgr_->RegisterTemplate(fid, *image);
    }
  }
  return Status::Ok();
}

Status Cluster::DeployTable4Functions() {
  for (const FunctionProfile& profile : Table4Functions()) {
    TRENV_RETURN_IF_ERROR(Deploy(profile));
  }
  return Status::Ok();
}

bool Cluster::AnyAlive() const {
  for (const auto& node : nodes_) {
    if (node->alive) {
      return true;
    }
  }
  return false;
}

size_t Cluster::PickNode(FunctionId function, SimTime arrival) {
  // Callers guarantee at least one node is alive.
  if (config_.dispatch == ClusterConfig::Dispatch::kRoundRobin) {
    while (!nodes_[next_node_]->alive) {
      next_node_ = (next_node_ + 1) % nodes_.size();
    }
    const size_t node = next_node_;
    next_node_ = (next_node_ + 1) % nodes_.size();
    return node;
  }
  if (config_.dispatch == ClusterConfig::Dispatch::kTemplateLocality) {
    // Template locality: prefer a node that already has the function warm
    // (keep-alive instance), then one holding a live template lease (attach
    // is metadata-only there), then fall back to least-loaded. Ties break by
    // node index, so placement is deterministic.
    const auto key = [&](size_t i) {
      const Node& n = *nodes_[i];
      const bool warm = n.platform->keep_alive().CountFor(function) > 0;
      const bool leased = pool_mgr_ != nullptr &&
                          pool_mgr_->HoldsLease(static_cast<uint32_t>(i), function);
      // Membership-view consult: with the continuous control plane on, a
      // node whose NIC is backlogged (or, during a degraded view, any cold
      // pull at all) is penalized before the load tie-breakers. Zero for
      // every node when poolctl is off, so legacy ordering is unchanged.
      const uint64_t penalty =
          pool_ctl_ != nullptr
              ? pool_ctl_->DispatchPenaltyMs(static_cast<uint32_t>(i), arrival)
              : 0;
      return std::make_tuple(!warm, !leased, penalty,
                             n.platform->concurrent_startups() + WindowLoad(i),
                             n.platform->frames().used_bytes());
    };
    return ArgMinAlive(nodes_, key);
  }
  // Least-loaded: fewest in-flight startups, then least DRAM in use — the
  // "dispatch to whichever node has available CPU" ideal of section 3.2.
  return ArgMinAlive(nodes_, [&](size_t i) {
    const Node& n = *nodes_[i];
    return std::make_pair(n.platform->concurrent_startups() + WindowLoad(i),
                          n.platform->frames().used_bytes());
  });
}

Status Cluster::Submit(SimTime arrival, FunctionId function, SubmitOptions options) {
  const Status status = Dispatch(arrival, function, std::move(options));
  if (status.ok()) {
    ++accepted_;
  }
  return status;
}

Status Cluster::Dispatch(SimTime arrival, FunctionId function, SubmitOptions options) {
  if (!AnyAlive()) {
    if (injector_ == nullptr) {
      return Status::Unavailable("no node alive to accept invocation of '" +
                                 std::string(FunctionName(function)) + "'");
    }
    // Whole-rack outage mid-chaos: park the invocation; the next restart
    // flushes the deferred queue.
    deferred_.push_back(LostInvocation{
        .function = function, .arrival = arrival, .on_complete = std::move(options.on_complete)});
    injector_->CountDeferred();
    return Status::Ok();
  }
  const size_t node_index =
      (options.preferred_node >= 0 &&
       static_cast<size_t>(options.preferred_node) < nodes_.size() &&
       nodes_[options.preferred_node]->alive)
          ? static_cast<size_t>(options.preferred_node)
          : PickNode(function, arrival);
  ServerlessPlatform& platform = *nodes_[node_index]->platform;
  if (platform.tracer() != nullptr) {
    // Dispatch marker on the chosen node's control track (track 0).
    const obs::SpanId id =
        platform.tracer()->Instant({platform.trace_pid(), 0}, "dispatch", "cluster");
    platform.tracer()->Annotate(id, "function", std::string(FunctionName(function)));
    platform.tracer()->Annotate(id, "node", static_cast<int64_t>(node_index));
  }
  SimTime start = arrival;
  if (pool_mgr_ != nullptr) {
    // Attach the template through the control plane before the invocation
    // can start: a lease hit is metadata-only; a miss pulls the shards over
    // the chosen node's NIC. Expired leases up to `arrival` lapse first.
    clock_.RunUntil(arrival);
    const PoolManager::AttachOutcome attach =
        pool_mgr_->Attach(static_cast<uint32_t>(node_index), function, arrival);
    start = arrival + attach.latency;
    if (platform.tracer() != nullptr) {
      const obs::SpanId id =
          platform.tracer()->Instant({platform.trace_pid(), 0}, "poolmgr.attach", "poolmgr");
      platform.tracer()->Annotate(id, "lease_hit", attach.lease_hit ? int64_t{1} : int64_t{0});
      platform.tracer()->Annotate(id, "fetched_pages",
                                  static_cast<int64_t>(attach.fetched_pages));
      platform.tracer()->Annotate(id, "latency_us", attach.latency.nanos() / 1000);
    }
  }
  if (platform.registry().FindById(function) == nullptr) {
    // Name the rejecting node: "invocation failed" without a culprit is
    // useless in a rack-sized log.
    const std::string name(FunctionName(function));
    return Status::NotFound("node " + std::to_string(node_index) + " rejected invocation of '" +
                            name + "': no such function: " + name);
  }
  if (!window_dispatches_.empty()) {
    ++window_dispatches_[node_index];
  }
  if (coordinator_ != nullptr) {
    inboxes_[node_index].push_back(SubmitCmd{start, function, std::move(options.on_complete)});
    return Status::Ok();
  }
  return platform.Submit(start, function, std::move(options.on_complete));
}

void Cluster::FocusNode(size_t i) {
  if (injector_ == nullptr) {
    return;
  }
  injector_->BindClock(&nodes_[i]->platform->scheduler());
  injector_->SetActiveNode(static_cast<uint32_t>(i));
}

void Cluster::AdvanceNodes(size_t first, size_t last, std::optional<SimTime> target) {
  // Dead nodes advance too (their queue is empty; only the clock moves), so
  // a restarted node rejoins at the cluster-wide instant. Without a target
  // each node runs to completion, so node clocks diverge.
  for (size_t i = first; i < last; ++i) {
    ServerlessPlatform& platform = *nodes_[i]->platform;
    // The node's queued submits go first, in push order, so its scheduler's
    // sequence numbers match an immediate submit's. Dispatch rejected
    // undeployed functions before queueing, so these cannot fail.
    for (SubmitCmd& cmd : inboxes_[i]) {
      [[maybe_unused]] const Status status =
          platform.Submit(cmd.start, cmd.function, std::move(cmd.on_complete));
      assert(status.ok());
    }
    inboxes_[i].clear();
    FocusNode(i);
    if (target.has_value()) {
      platform.scheduler().RunUntil(*target);
    } else {
      platform.RunToCompletion();
    }
  }
}

void Cluster::RunEpoch(std::optional<SimTime> target) {
  if (coordinator_ == nullptr) {
    AdvanceNodes(0, nodes_.size(), target);
    return;
  }
  // Shard s runs a contiguous node range. FocusNode is a no-op without an
  // injector, and an injector implies one shard, so it stays single-threaded.
  coordinator_->RunEpoch([this, &target](size_t s) {
    const size_t n = nodes_.size();
    const size_t k = coordinator_->shards();
    AdvanceNodes(n * s / k, n * (s + 1) / k, target);
  });
}

void Cluster::AdvanceClocksTo(SimTime t) {
  RunEpoch(t);
  clock_.RunUntil(t);
  // A sync point refreshes the real load state: the window's provisional
  // placement counts are now visible as concurrent startups. Empty outside a
  // windowed RunSharded.
  std::fill(window_dispatches_.begin(), window_dispatches_.end(), 0u);
}

void Cluster::CrashNode(size_t i, SimTime when) {
  Node& node = *nodes_[i];
  if (!node.alive) {
    return;
  }
  node.alive = false;
  injector_->RecordInjection(when, FaultDomain::kNodeCrash, static_cast<uint32_t>(i));
  std::vector<LostInvocation> lost = node.platform->Crash();
  node.sandbox_pool->Clear();
  if (pool_mgr_ != nullptr) {
    // A dead worker tears down nothing orderly; its leases just vanish.
    pool_mgr_->ReleaseWorker(static_cast<uint32_t>(i));
  }
  if (shstate_ != nullptr) {
    // Region ownership the dead worker held becomes vacant (the bytes are
    // durable in the pool); its reader leases vanish like poolmgr's.
    shstate_->ReleaseWorker(static_cast<uint32_t>(i));
  }
  // Failover: everything the dead node had accepted restarts on a survivor
  // once the dispatcher's health check fires. TrEnv restores from the shared
  // snapshot (redeploy_penalty zero); the cold-redeploy baseline pays a
  // snapshot pull per recovered invocation first.
  const SimTime redispatch =
      when + cost::kFailoverDetectionLatency + config_.failover.redeploy_penalty;
  for (LostInvocation& invocation : lost) {
    injector_->CountFailover(redispatch - invocation.arrival);
    SubmitOptions options;
    options.on_complete = std::move(invocation.on_complete);
    (void)Dispatch(redispatch, invocation.function, std::move(options));
  }
}

void Cluster::RestartNode(size_t i, SimTime when) {
  Node& node = *nodes_[i];
  if (node.alive) {
    return;
  }
  node.alive = true;
  injector_->CountRestart();
  if (deferred_.empty()) {
    return;
  }
  // Flush invocations parked during a whole-rack outage.
  std::vector<LostInvocation> parked;
  parked.swap(deferred_);
  const SimTime ready = when + cost::kFailoverDetectionLatency;
  for (LostInvocation& d : parked) {
    injector_->CountFailover(ready - d.arrival);
    SubmitOptions options;
    options.on_complete = std::move(d.on_complete);
    (void)Dispatch(std::max(ready, d.arrival), d.function, std::move(options));
  }
}

void Cluster::ApplyFaultEvent(const FaultInjector::NodeEvent& event) {
  switch (event.kind) {
    case FaultInjector::NodeEvent::Kind::kCrash:
      if (event.node < nodes_.size()) {
        CrashNode(event.node, event.time);
      }
      break;
    case FaultInjector::NodeEvent::Kind::kRestart:
      if (event.node < nodes_.size()) {
        RestartNode(event.node, event.time);
      }
      break;
    case FaultInjector::NodeEvent::Kind::kPressureStart:
    case FaultInjector::NodeEvent::Kind::kPressureEnd:
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (event.node == kAnyTarget || event.node == i) {
          FocusNode(i);
          nodes_[i]->platform->SetSoftMemCapScale(event.severity);
        }
      }
      break;
    case FaultInjector::NodeEvent::Kind::kPoolCrash:
      if (pool_mgr_ != nullptr && pool_mgr_->pool_node_alive(event.node)) {
        injector_->RecordInjection(event.time, FaultDomain::kPoolNodeCrash, event.node);
        if (pool_ctl_ != nullptr) {
          // Continuous mode: the data plane learns the node is silent, but
          // ring surgery waits for the membership protocol's declaration.
          pool_mgr_->OnPoolNodeDown(event.node);
          pool_ctl_->membership().NodeDown(event.node);
        } else {
          pool_mgr_->OnPoolNodeCrash(event.node, event.time);
        }
      }
      break;
    case FaultInjector::NodeEvent::Kind::kPoolRestart:
      if (pool_mgr_ != nullptr) {
        if (pool_ctl_ != nullptr) {
          if (!pool_mgr_->pool_node_alive(event.node)) {
            pool_mgr_->OnPoolNodeUp(event.node);
            pool_ctl_->membership().NodeUp(event.node);
          }
        } else {
          pool_mgr_->OnPoolNodeRestart(event.node, event.time);
        }
      }
      break;
  }
}

std::vector<FaultInjector::NodeEvent> Cluster::PlanFaultEvents() {
  if (injector_ == nullptr) {
    return {};
  }
  return injector_->PlanNodeEvents(static_cast<uint32_t>(nodes_.size()),
                                   pool_mgr_ != nullptr ? config_.poolmgr.pool_nodes : 0);
}

Status Cluster::Run(const Schedule& schedule) {
  ScheduleStream arrivals(schedule);
  return RunSharded(arrivals);
}

bool Cluster::CanShardAcrossThreads() const {
  // shstate is cross-node-shared and unsynchronized (region maps, clock), so
  // it degrades sharded runs to one shard like the other shared components.
  return injector_ == nullptr && config_.node_config.tracer == nullptr &&
         config_.node_config.prewarm == nullptr && !config_.node_config.density.enabled &&
         shstate_ == nullptr;
}

Status Cluster::RunSharded(ArrivalStream& arrivals, const ShardedRunOptions& options) {
  const std::vector<FaultInjector::NodeEvent> plan = PlanFaultEvents();
  // Shard count: clamped to the node count; degraded to one shard when a
  // cross-node-shared component (injector, tracer, prewarm, density,
  // shstate) is configured. Degradation changes only how much work runs
  // concurrently, so output is still independent of the requested count.
  uint32_t shards = std::max<uint32_t>(1, options.shards);
  shards = std::min<uint32_t>(shards, static_cast<uint32_t>(nodes_.size()));
  if (!CanShardAcrossThreads()) {
    shards = 1;
  }
  sharded_effective_shards_ = shards;

  // While the coordinator is installed, Dispatch queues into the inboxes and
  // every AdvanceClocksTo and DrainAll below is one epoch on its shards.
  ShardCoordinator coordinator(shards);
  coordinator_ = &coordinator;
  if (options.lookahead > SimDuration::Zero()) {
    window_dispatches_.assign(nodes_.size(), 0);
  }
  struct RunGuard {
    Cluster* cluster;
    ~RunGuard() {
      cluster->coordinator_ = nullptr;
      cluster->window_dispatches_.clear();
    }
  } guard{this};

  // Node-level fault events (crashes, restarts, pressure windows) merge into
  // the arrival timeline: every node advances to an event or arrival before
  // it applies or places. An arrival opens a window [arrival, arrival +
  // lookahead) whose arrivals all place against the load at its start plus
  // the window's own placements; a due fault event cuts it short. With zero
  // lookahead each window holds one arrival: the sequential loop.
  size_t next_event = 0;
  const auto fault_due = [&](SimTime t) {
    return next_event < plan.size() && plan[next_event].time <= t;
  };
  std::optional<Invocation> pending = arrivals.Next();
  while (pending.has_value() || next_event < plan.size()) {
    if (!pending.has_value() || fault_due(pending->arrival)) {
      AdvanceClocksTo(plan[next_event].time);
      ApplyFaultEvent(plan[next_event]);
      ++next_event;
      continue;
    }
    const SimTime window_end = pending->arrival + options.lookahead;
    AdvanceClocksTo(pending->arrival);
    do {
      TRENV_RETURN_IF_ERROR(Submit(pending->arrival, pending->function));
      pending = arrivals.Next();
    } while (pending.has_value() && pending->arrival < window_end &&
             !fault_due(pending->arrival));
  }
  DrainAll();
  sharded_epochs_ = coordinator.epochs();
  sharded_barrier_wait_ = coordinator.barrier_wait_seconds();
  return Status::Ok();
}

void Cluster::DrainAll() {
  RunEpoch(std::nullopt);
  DrainRackClock();
}

void Cluster::DrainRackClock() {
  if (pool_ctl_ != nullptr) {
    // Cancel the periodic ticks (heartbeats, rebalancing) so the drain
    // below terminates. No final converge: replication at trace end is
    // whatever the continuous loop actually restored.
    pool_ctl_->Quiesce();
  }
  // Let outstanding lease expiries, rebalances, shootdowns and reader-lease
  // expiries lapse. A lease has at most one expiry check pending, and a
  // check re-arms only while its lease's deadline lies ahead, so this drains.
  clock_.RunUntilIdle();
}

std::optional<SimTime> Cluster::NextEventTime() {
  std::optional<SimTime> earliest;
  const auto consider = [&](std::optional<SimTime> t) {
    if (t.has_value() && (!earliest.has_value() || *t < *earliest)) {
      earliest = t;
    }
  };
  for (auto& node : nodes_) {
    consider(node->platform->scheduler().NextEventTime());
  }
  consider(clock_.NextEventTime());
  return earliest;
}

uint64_t Cluster::NodeDramBytes() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->platform->frames().used_bytes();
  }
  return total;
}

FunctionMetrics Cluster::AggregateMetrics() const {
  FunctionMetrics total;
  for (const auto& node : nodes_) {
    total.MergeFrom(node->platform->metrics().Aggregate());
  }
  return total;
}

uint64_t Cluster::TotalInvocations() const { return AggregateMetrics().invocations; }

}  // namespace trenv
