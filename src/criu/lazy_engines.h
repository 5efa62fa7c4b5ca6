// REAP and FaaSnap: the state-of-the-art lazy-restoration baselines
// (Firecracker microVMs, snapshot in a CXL/DRAM tmpfs).
//
// REAP records the first invocation's working set, prefetches it eagerly on
// restore, and serves the remaining pages through userfaultfd during
// execution. FaaSnap adds an asynchronous prefetch policy: a smaller eager
// set (faster startup) with overlapped loading that hides most fault
// latency. The "+" variants reuse network namespaces from a pool — the
// enhancement the paper grants them for a fair comparison (section 9.1).
#ifndef TRENV_CRIU_LAZY_ENGINES_H_
#define TRENV_CRIU_LAZY_ENGINES_H_

#include "src/criu/restore_engine.h"

namespace trenv {

class ReapEngine : public RestoreEngine {
 public:
  struct Options {
    bool pooled_netns = false;  // the "+" enhancement
    // Fraction of the recorded working set loaded eagerly at restore.
    double eager_fraction = 1.0;
    // Fraction of post-restore fault latency hidden by overlap.
    double hidden_fault_fraction = 0.0;
  };

  ReapEngine(SandboxFactory* factory, SandboxPool* pool, Options options)
      : factory_(factory), pool_(pool), options_(options) {}

  std::string_view name() const override { return options_.pooled_netns ? "reap+" : "reap"; }

  Result<RestoreOutcome> Restore(const FunctionProfile& profile, RestoreContext& ctx) override;
  Result<ExecutionOverheads> OnExecute(const FunctionProfile& profile,
                                       FunctionInstance& instance, RestoreContext& ctx) override;

 protected:
  const Options& options() const { return options_; }

 private:
  SandboxFactory* factory_;
  SandboxPool* pool_;
  Options options_;
};

class FaasnapEngine : public ReapEngine {
 public:
  FaasnapEngine(SandboxFactory* factory, SandboxPool* pool, bool pooled_netns);

  std::string_view name() const override {
    return options().pooled_netns ? "faasnap+" : "faasnap";
  }
};

}  // namespace trenv

#endif  // TRENV_CRIU_LAZY_ENGINES_H_
