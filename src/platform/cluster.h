// Cluster: a rack of nodes sharing one disaggregated memory pool — the
// "across nodes" half of the paper's title.
//
// Every node runs its own ServerlessPlatform (local DRAM, sandbox pool,
// TrEnv engine), but all nodes attach to the SAME CXL multi-headed device
// and the SAME content-addressed snapshot store. Deploying a function on N
// nodes therefore stores its image once per rack (paper section 8.2: "Only
// one copy is needed per rack if it is read-only, reducing the cost by a
// factor of the number of machines").
#ifndef TRENV_PLATFORM_CLUSTER_H_
#define TRENV_PLATFORM_CLUSTER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/criu/trenv_engine.h"
#include "src/fault/fault_injector.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/rdma_pool.h"
#include "src/obs/registry.h"
#include "src/platform/platform.h"
#include "src/poolctl/control_plane.h"
#include "src/poolmgr/pool_manager.h"
#include "src/shstate/region_manager.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/shard_coordinator.h"
#include "src/workload/arrival_stream.h"

namespace trenv {

// How the rack reacts to a node death. Recovered invocations restart from
// the shared snapshot on a survivor cost::kFailoverDetectionLatency after the
// crash, plus the snapshot re-distribution delay set here.
struct FailoverPolicy {
  // Extra delay charged per recovered invocation before it can restart.
  // Zero for TrEnv (the template is already in the shared pool); set it to
  // a snapshot-pull cost to model conventional per-node re-deployment.
  SimDuration redeploy_penalty;
};

// How Cluster::RunSharded splits one run across threads.
struct ShardedRunOptions {
  // Worker threads driving disjoint node ranges; clamped to the node count.
  // Every setting produces byte-identical results — shards only decide how
  // much of each epoch's node-drain work runs concurrently.
  uint32_t shards = 1;
  // Conservative-lookahead window. Zero: one synchronization epoch per
  // arrival, so every dispatch sees exactly the load state of a sequential
  // loop that advances every node to each arrival before placing it — the
  // reference tests/sharded_cluster_test.cc spells out. Positive:
  // all arrivals inside one window are dispatched against the load snapshot
  // taken at the window start (plus a deterministic count of the window's own
  // placements per node), amortizing the barrier across many arrivals. The
  // window grid depends only on the trace, never on the shard count, so
  // output is still independent of --shards.
  SimDuration lookahead{};
};

// Extra dispatch controls for Cluster::Submit (pipeline drivers). Declared
// outside Cluster so Submit can default it in-class.
struct ClusterSubmitOptions {
  // Fires when the invocation completes; survives crash re-dispatch.
  CompletionFn on_complete;
  // Data-locality hint: dispatch here when the node is alive (the node
  // already attached the invocation's input region's pool home). Negative
  // = use the configured policy.
  int32_t preferred_node = -1;
};

struct ClusterConfig {
  uint32_t nodes = 4;
  PlatformConfig node_config;
  // kTemplateLocality routes an invocation to the node already holding a
  // warm instance or a template lease for the function (falling back to
  // least-loaded), so attaches are metadata-only instead of shard pulls.
  enum class Dispatch { kRoundRobin, kLeastLoaded, kTemplateLocality };
  Dispatch dispatch = Dispatch::kLeastLoaded;
  // Cross-node memory-pool control plane (sharded template store + leases).
  // Disabled by default: the cluster then behaves bit-identically to one
  // built before the control plane existed.
  PoolManagerConfig poolmgr;
  // Continuous pool control plane (gossip membership, budgeted rebalancing,
  // admission control, hot-shard replication) layered over poolmgr; requires
  // poolmgr.enabled. Disabled by default: the legacy single-shot crash
  // wiring stays active and every existing run is byte-identical.
  PoolCtlConfig poolctl;
  // Shared-state data plane (writable regions + ownership transfer over the
  // pool). Disabled by default: no RegionManager is built and every existing
  // code path is byte-identical.
  ShStateConfig shstate;
  // Fault-injection campaign; an empty schedule means the fault-free fabric
  // (bit-identical behaviour to a cluster with no injector at all).
  FaultSchedule faults;
  FailoverPolicy failover;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Deploys a function on every node; the snapshot dedups into the shared
  // pool, so the rack stores one copy regardless of node count.
  [[nodiscard]] Status Deploy(const FunctionProfile& profile);
  [[nodiscard]] Status DeployTable4Functions();

  using SubmitOptions = ClusterSubmitOptions;
  // Dispatches an invocation to a node per the configured policy. If every
  // node is down (mid-crash-window), the invocation is parked and
  // re-dispatched when a node restarts. Errors name the rejecting node and
  // the function.
  [[nodiscard]] Status Submit(SimTime arrival, FunctionId function,
                              SubmitOptions options = {});
  // RunSharded over a materialized schedule with default options.
  [[nodiscard]] Status Run(const Schedule& schedule);

  // Sharded run: the sequential loop over the timeline steps below, with the
  // trace pulled lazily from `arrivals` (a 10M-invocation trace never
  // materializes). For the run's duration a ShardCoordinator is installed,
  // so each AdvanceClocksTo and DrainAll is one epoch that advances the
  // per-node EventSchedulers on parallel shards. Cross-node work (dispatch,
  // poolmgr attach, fault events, failover re-dispatch) stays on the calling
  // thread between epochs; platform submits wait in per-node inboxes that
  // each node's shard applies in the next epoch, before the node runs.
  // Output is byte-identical at any `shards` setting, and with lookahead
  // zero it is byte-identical to the loop built from the steps directly.
  // After an error return, submits it already accepted stay queued; the
  // next step runs them.
  //
  // Preconditions for cross-thread sharding: no fault injector, no tracer,
  // no prewarm policy, density off, no shstate plane. When any of those is
  // configured the run degrades to one shard (same epoch algorithm, same
  // output at any requested shard count) — see docs/simulation_model.md.
  [[nodiscard]] Status RunSharded(ArrivalStream& arrivals,
                                  const ShardedRunOptions& options = {});

  // Introspection for the last RunSharded (the sharded_scale bench reports
  // synchronization overhead from these). Steps called outside a sharded
  // run count no epochs.
  uint32_t sharded_effective_shards() const { return sharded_effective_shards_; }
  uint64_t sharded_epochs() const { return sharded_epochs_; }
  double sharded_barrier_wait_seconds() const { return sharded_barrier_wait_; }

  size_t node_count() const { return nodes_.size(); }
  ServerlessPlatform& node(size_t i) { return *nodes_[i]->platform; }
  bool node_alive(size_t i) const { return nodes_[i]->alive; }
  CxlPool& cxl() { return *cxl_; }
  const SnapshotDedupStore& dedup() const { return *dedup_; }
  // Null when the configured FaultSchedule is empty.
  FaultInjector* fault_injector() { return injector_.get(); }
  // Null unless ClusterConfig::poolmgr.enabled.
  PoolManager* pool_manager() { return pool_mgr_.get(); }
  const PoolManager* pool_manager() const { return pool_mgr_.get(); }
  // Null unless ClusterConfig::poolctl.enabled (and poolmgr.enabled).
  PoolControlPlane* pool_control() { return pool_ctl_.get(); }
  const PoolControlPlane* pool_control() const { return pool_ctl_.get(); }
  // Null unless ClusterConfig::shstate.enabled.
  RegionManager* shared_state() { return shstate_.get(); }
  const RegionManager* shared_state() const { return shstate_.get(); }

  // --- timeline steps ---------------------------------------------------------
  // Every loop over the rack is built from these: RunSharded,
  // shstate::PipelineDriver (which interleaves its own step scheduler with
  // them) and the sequential reference loop in tests/sharded_cluster_test.cc.
  //
  // Earliest pending event across the node schedulers and the rack clock.
  std::optional<SimTime> NextEventTime();
  // One epoch: runs every node scheduler, then the rack clock, up to t in
  // lock-step, so cross-node ordering stays deterministic.
  void AdvanceClocksTo(SimTime t);
  // Node-level fault plan (empty without an injector) and its application,
  // merged into the arrival timeline by RunSharded() and PipelineDriver.
  std::vector<FaultInjector::NodeEvent> PlanFaultEvents();
  void ApplyFaultEvent(const FaultInjector::NodeEvent& event);
  // The last epoch: drains every node scheduler to completion, then the
  // rack clock.
  void DrainAll();
  // Invocations the cluster accepted via Submit — the chaos bench's
  // zero-loss check compares this against completed counts.
  uint64_t accepted_invocations() const { return accepted_; }
  // Stats of the shared pool devices (fetches, fetch CPU). Cluster-owned so
  // concurrent clusters never race on the process-wide DefaultRegistry().
  obs::Registry& registry() { return stats_; }
  const obs::Registry& registry() const { return stats_; }

  // Rack-level memory accounting: one shared pool copy + per-node DRAM.
  uint64_t PoolBytes() const { return cxl_->used_bytes(); }
  uint64_t NodeDramBytes() const;
  uint64_t RackTotalBytes() const { return PoolBytes() + NodeDramBytes(); }

  // Aggregated metrics across nodes.
  FunctionMetrics AggregateMetrics() const;
  uint64_t TotalInvocations() const;

 private:
  struct Node {
    std::unique_ptr<SandboxFactory> sandbox_factory;
    std::unique_ptr<SandboxPool> sandbox_pool;
    std::unique_ptr<MmtApi> mmt;
    std::unique_ptr<TrEnvEngine> engine;
    std::unique_ptr<ServerlessPlatform> platform;
    bool alive = true;
  };

  // A platform Submit that a sharded run defers to the next epoch: the node's
  // own shard applies its inbox in push order just before running the node,
  // so the shards run their nodes' submits in parallel and event sequence
  // numbers match an immediate submit's.
  struct SubmitCmd {
    SimTime start;
    FunctionId function;
    CompletionFn on_complete;
  };

  bool AnyAlive() const;
  // True when node drains may run on concurrent threads: the injector binds
  // per-node state, the tracer and prewarm policy are cross-node-shared and
  // unsynchronized, and density migration writes the shared pools.
  bool CanShardAcrossThreads() const;
  // Placements already made in the current lookahead window; zero in
  // per-arrival and legacy modes (window_dispatches_ is empty there).
  uint32_t WindowLoad(size_t node) const {
    return window_dispatches_.empty() ? 0u : window_dispatches_[node];
  }
  size_t PickNode(FunctionId function, SimTime arrival);
  // Submit minus acceptance accounting: used both for fresh arrivals and for
  // re-dispatching recovered invocations (which were already counted). A
  // function the chosen node has not deployed is rejected here, before a
  // sharded run queues the submit, so a rejection is never counted.
  Status Dispatch(SimTime arrival, FunctionId function, SubmitOptions options);
  // Points the injector's clock and CXL-port scope at node i before its
  // scheduler is drained (node clocks diverge during DrainAll).
  void FocusNode(size_t i);
  // Runs nodes [first, last) in index order, each after applying its
  // inbox, up to `target`, or to completion without one.
  void AdvanceNodes(size_t first, size_t last, std::optional<SimTime> target);
  // The node half of AdvanceClocksTo and DrainAll: every node inline, or,
  // while RunSharded has installed a coordinator, one contiguous node range
  // per shard.
  void RunEpoch(std::optional<SimTime> target);
  // Quiesces the pool control plane's periodic ticks, then runs the rack
  // clock until idle: the end of DrainAll.
  void DrainRackClock();
  void CrashNode(size_t i, SimTime when);
  void RestartNode(size_t i, SimTime when);

  ClusterConfig config_;
  obs::Registry stats_;
  std::shared_ptr<FsLayer> base_layer_;
  std::unique_ptr<CxlPool> cxl_;
  BackendRegistry backends_;
  TieredPool tiered_;
  std::unique_ptr<SnapshotDedupStore> dedup_;
  std::unique_ptr<FaultInjector> injector_;
  // Inter-node transfer fabric for the pool control plane's shard pulls;
  // separate from the MHD so attach traffic contends on its own NIC path.
  std::unique_ptr<RdmaPool> fabric_;
  // The rack clock: lease expiries, rebalances, the pool control plane's
  // ticks, shootdowns and reader-lease expiries all run on it, and it follows
  // the node schedulers in lock-step. Declared before the managers, which
  // hold pointers to it, so it outlives them.
  EventScheduler clock_;
  std::unique_ptr<PoolManager> pool_mgr_;
  std::unique_ptr<PoolControlPlane> pool_ctl_;
  std::unique_ptr<RegionManager> shstate_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Invocations accepted while every node was down, parked until a restart
  // (their ticket is unused).
  std::vector<LostInvocation> deferred_;
  size_t next_node_ = 0;
  uint64_t accepted_ = 0;
  // Non-null only while RunSharded is on the stack: epochs run on its shards,
  // and Dispatch fills the node's inbox instead of calling Submit directly.
  ShardCoordinator* coordinator_ = nullptr;
  // One per node, applied by the node's next epoch.
  std::vector<std::vector<SubmitCmd>> inboxes_;
  // Windowed dispatch only: per-node count of placements already made in the
  // current lookahead window, added to the load key so a burst inside one
  // window spreads instead of dog-piling the snapshot's least-loaded node.
  // Empty in per-arrival and legacy modes (PickNode then reads all zeros).
  std::vector<uint32_t> window_dispatches_;
  uint32_t sharded_effective_shards_ = 0;
  uint64_t sharded_epochs_ = 0;
  double sharded_barrier_wait_ = 0;
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_CLUSTER_H_
