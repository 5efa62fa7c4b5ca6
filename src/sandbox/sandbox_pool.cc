#include "src/sandbox/sandbox_pool.h"

namespace trenv {

bool SandboxPool::Put(std::unique_ptr<Sandbox> sandbox) {
  if (idle_.size() >= kMaxIdle) {
    return false;
  }
  idle_.push_back(std::move(sandbox));
  return true;
}

std::unique_ptr<Sandbox> SandboxPool::Take() {
  if (idle_.empty()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  std::unique_ptr<Sandbox> sandbox = std::move(idle_.front());
  idle_.pop_front();
  return sandbox;
}

std::shared_ptr<UnionFs> SandboxPool::AcquireOverlay(FunctionId function) {
  if (function < overlay_cache_.size() && !overlay_cache_[function].empty()) {
    std::shared_ptr<UnionFs> overlay = std::move(overlay_cache_[function].back());
    overlay_cache_[function].pop_back();
    return overlay;
  }
  // Assemble a fresh overlay from the function's dependency layer.
  auto overlay = std::make_shared<UnionFs>();
  if (function < function_layers_.size() && function_layers_[function] != nullptr) {
    overlay->PushLower(function_layers_[function]);
  }
  return overlay;
}

void SandboxPool::ReleaseOverlay(FunctionId function, std::shared_ptr<UnionFs> overlay) {
  if (overlay == nullptr || function == kInvalidFunctionId) {
    return;
  }
  overlay->PurgeUpper();
  if (overlay_cache_.size() <= function) {
    overlay_cache_.resize(function + 1);
  }
  overlay_cache_[function].push_back(std::move(overlay));
}

void SandboxPool::RegisterFunctionLayer(const std::string& function,
                                        std::shared_ptr<const FsLayer> layer) {
  const FunctionId id = InternFunction(function);
  if (function_layers_.size() <= id) {
    function_layers_.resize(id + 1);
  }
  function_layers_[id] = std::move(layer);
}

}  // namespace trenv
