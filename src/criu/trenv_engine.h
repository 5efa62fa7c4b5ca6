// TrEnvEngine: the paper's system. Online restoration (Fig 6, steps B1-B4):
//
//   B1  finished instances are cleansed and parked in the universal pool
//   B2  a pending invocation repurposes ANY idle sandbox (2 mounts + cgroup
//       reconfigure), falling back to cold creation with CLONE_INTO_CGROUP
//   B3  CRIU "repurpose" restores non-memory process state into the sandbox
//   B4  mmt_attach copies template metadata; pages stay in the CXL/RDMA pool
//
// Execution reads CXL pages directly (zero software overhead), CoWs on
// write, and major-faults RDMA pages on first touch.
#ifndef TRENV_CRIU_TRENV_ENGINE_H_
#define TRENV_CRIU_TRENV_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/criu/deduplicator.h"
#include "src/criu/restore_engine.h"
#include "src/mempool/promotion.h"
#include "src/mmtemplate/api.h"
#include "src/poolmgr/fetch_queue.h"
#include "src/runtime/working_set.h"

namespace trenv {

class TrEnvEngine : public RestoreEngine {
 public:
  struct Options {
    // Disables sandbox repurposing (Fig 21's ablation steps): cold create.
    bool repurpose_sandbox = true;
    // Uses CLONE_INTO_CGROUP instead of spawn-then-migrate.
    bool clone_into_cgroup = true;
    // Uses mm-template attach; when false, falls back to CRIU-style memory
    // copy (the "Cgroup"-only ablation configuration).
    bool use_mm_template = true;
    // Working-set-guided batched prefetch on the attach fast path. The first
    // invocation after an attach records its major-fault footprint per
    // (function, process); later attaches of RDMA/NAS-homed templates issue
    // the recorded runs as coalesced bulk fetches through the NIC queue,
    // overlapped with the B2/B3 repurpose+restore phases, so only residual
    // cold pages demand-fault during execution. The whole recorded working
    // set is fetched, through a private NIC queue with the default incast
    // penalty. Off by default: disabled runs are byte-identical to the
    // pre-prefetch engine.
    bool prefetch = false;
  };

  // Optional hot-chunk promotion across tiers (not owned). Executions heat
  // the function's chunks — by recorded working-set hit counts once a first
  // invocation has been recorded, uniformly before that — and a sweep runs
  // every kPromotionSweepInterval executions, migrating hot chunks toward
  // the byte-addressable tier.
  static constexpr uint64_t kPromotionSweepInterval = 32;
  void EnablePromotion(PromotionManager* promotion) { promotion_ = promotion; }

  TrEnvEngine(SandboxFactory* factory, SandboxPool* pool, MmtApi* mmt,
              SnapshotDedupStore* dedup, Options options);
  // Full TrEnv (all optimizations on).
  TrEnvEngine(SandboxFactory* factory, SandboxPool* pool, MmtApi* mmt,
              SnapshotDedupStore* dedup);

  std::string_view name() const override { return name_; }

  // Step A: checkpoint, deduplicate into the pool, build one mm-template per
  // process.
  Status Prepare(const FunctionProfile& profile) override;

  Result<RestoreOutcome> Restore(const FunctionProfile& profile, RestoreContext& ctx) override;
  Result<ExecutionOverheads> OnExecute(const FunctionProfile& profile,
                                       FunctionInstance& instance, RestoreContext& ctx) override;
  void OnExecuteDone(FunctionInstance& instance) override;
  void OnCrash() override;
  // Step B1: cleanse the sandbox and park it in the universal pool.
  void Retire(std::unique_ptr<FunctionInstance> instance, RestoreContext& ctx) override;

  const SnapshotDedupStore* dedup() const { return dedup_; }
  // The templates built for a function (one per process); for tests.
  const std::vector<MmtId>* TemplatesFor(FunctionId function) const;
  // The consolidated (deduplicated) image Prepare built for a function;
  // null until prepared. The pool control plane shards this image.
  const ConsolidatedImage* ImageFor(FunctionId function) const;
  // The recorded first-invocation working set; null until a first invocation
  // completed with recording active (prefetch or promotion enabled).
  const WorkingSetProfile* WorkingSetFor(FunctionId function) const;
  // The engine's private prefetch NIC queue (tests/benches inspect totals).
  const NicFetchQueue& prefetch_nic() const { return prefetch_nic_; }

 private:
  // Per-function step-A products (one mm-template per process, plus the
  // consolidated image driving promotion heat accounting) and the recorded
  // first-invocation working set.
  struct Prepared {
    std::vector<MmtId> templates;
    ConsolidatedImage image;
    WorkingSetProfile ws;
  };
  const Prepared* PreparedById(FunctionId id) const {
    return id < prepared_.size() ? prepared_[id].get() : nullptr;
  }
  const Prepared* PreparedFor(const FunctionProfile& profile) const {
    return PreparedById(FunctionIdOf(profile));
  }
  Prepared* MutablePreparedFor(const FunctionProfile& profile) {
    const FunctionId id = FunctionIdOf(profile);
    return id < prepared_.size() ? prepared_[id].get() : nullptr;
  }

  // Captures touched page runs into a WorkingSetProfile, mapping each
  // accessed MmStruct back to its process index (address spaces may overlap
  // between processes, so the sets are kept per process).
  class WorkingSetRecorder : public PageTouchObserver {
   public:
    void Arm(WorkingSetProfile* ws, FunctionInstance& instance);
    void Disarm();
    void OnTouch(const MmStruct& mm, Vpn vpn, uint64_t npages) override;

   private:
    WorkingSetProfile* ws_ = nullptr;
    std::vector<const MmStruct*> mms_;  // process order
  };

  // Issues the recorded working set as coalesced bulk fetches overlapped
  // with the B2/B3 phases; adds only the non-hidden residual to
  // outcome.startup.memory. No-op without a complete recorded profile.
  void PrefetchWorkingSet(const FunctionProfile& profile, RestoreOutcome& outcome,
                          RestoreContext& ctx, SimTime t0);
  // Heats the function's chunks for the promotion sweep: by recorded
  // working-set overlap when available, uniformly otherwise.
  void HeatChunks(const Prepared& prepared);

  SandboxFactory* factory_;
  SandboxPool* pool_;
  MmtApi* mmt_;
  SnapshotDedupStore* dedup_;
  Options options_;
  std::string name_;
  // Indexed by FunctionId (global id space — may be sparse); null = not
  // prepared with mm-templates.
  std::vector<std::unique_ptr<Prepared>> prepared_;
  // Streams opened against non-byte-addressable pools during execution.
  std::map<FunctionInstance*, std::vector<MemoryBackend*>> open_streams_;
  PromotionManager* promotion_ = nullptr;
  uint64_t executions_since_sweep_ = 0;
  WorkingSetRecorder recorder_;
  // Work-conserving NIC window for prefetch batches: concurrent attaches on
  // one node serialize their bulk fetches here.
  NicFetchQueue prefetch_nic_;
};

}  // namespace trenv

#endif  // TRENV_CRIU_TRENV_ENGINE_H_
