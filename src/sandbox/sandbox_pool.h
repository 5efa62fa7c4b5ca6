// SandboxPool: the universal (function-type-agnostic) pool of idle sandboxes
// plus the per-function overlay cache (paper section 5.2.1: "maintaining a
// pool of function-specific overlayfs, instead of discarding them").
//
// Overlay cache and layer registry are indexed by interned FunctionId; only
// RegisterFunctionLayer, a deployment-time call, takes the name.
#ifndef TRENV_SANDBOX_SANDBOX_POOL_H_
#define TRENV_SANDBOX_SANDBOX_POOL_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/interner.h"
#include "src/sandbox/sandbox.h"
#include "src/sandbox/union_fs.h"

namespace trenv {

class SandboxPool {
 public:
  // Idle sandboxes the pool parks at most.
  static constexpr size_t kMaxIdle = 256;

  // Parks a cleansed sandbox. Returns false (and drops it) if the pool is at
  // capacity.
  bool Put(std::unique_ptr<Sandbox> sandbox);
  // Takes ANY idle sandbox — repurposing is type-agnostic. Null if empty.
  std::unique_ptr<Sandbox> Take();

  size_t idle_count() const { return idle_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // Overlay cache: function-specific union filesystems are expensive to
  // assemble (layer resolution) but cheap to reuse once purged.
  std::shared_ptr<UnionFs> AcquireOverlay(FunctionId function);
  void ReleaseOverlay(FunctionId function, std::shared_ptr<UnionFs> overlay);
  // Registers how to build a function's overlay (its dependency layer).
  void RegisterFunctionLayer(const std::string& function,
                             std::shared_ptr<const FsLayer> layer);
  size_t cached_overlay_count(FunctionId function) const {
    return function < overlay_cache_.size() ? overlay_cache_[function].size() : 0;
  }

  // Crash reset: drops idle sandboxes and cached overlays (node-local state
  // that died with the node) but keeps the function-layer registry — layer
  // definitions come from deployment, which survives in the control plane.
  void Clear() {
    idle_.clear();
    for (auto& cache : overlay_cache_) {
      cache.clear();
    }
  }

 private:
  std::deque<std::unique_ptr<Sandbox>> idle_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // Indexed by FunctionId (global id space — may be sparse).
  std::vector<std::shared_ptr<const FsLayer>> function_layers_;
  std::vector<std::vector<std::shared_ptr<UnionFs>>> overlay_cache_;
};

}  // namespace trenv

#endif  // TRENV_SANDBOX_SANDBOX_POOL_H_
