// Sandbox: the repurposable isolation environment (paper Fig 5, section 5.2).
//
// A sandbox bundles the isolation components of Table 1 — network namespace,
// mount namespace + union rootfs, cgroup, and the cheap misc namespaces.
// TrEnv's insight is that after a function finishes, this bundle can be
// cleansed and repurposed for ANY pending function (type-agnostic), paying
// only 2 mounts + a cgroup reconfigure + a netns reset instead of a full
// cold creation.
#ifndef TRENV_SANDBOX_SANDBOX_H_
#define TRENV_SANDBOX_SANDBOX_H_

#include <cstdint>
#include <memory>

#include "src/common/interner.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sandbox/cgroup.h"
#include "src/sandbox/mount_namespace.h"
#include "src/sandbox/net_namespace.h"
#include "src/sandbox/union_fs.h"

namespace trenv {

enum class SandboxState { kInUse, kCleansing, kIdle };

// Cost of a sandbox lifecycle step, broken down as in Fig 4 / Fig 21.
struct SandboxCost {
  SimDuration network;
  SimDuration rootfs;
  SimDuration cgroup;
  SimDuration other;
  // Work that runs off the critical path (async purge of the upper dir).
  SimDuration deferred;

  SimDuration Total() const { return network + rootfs + cgroup + other; }
};

class Sandbox {
 public:
  Sandbox(uint64_t id, NetNamespace netns, Cgroup cgroup, std::shared_ptr<UnionFs> rootfs);

  uint64_t id() const { return id_; }
  SandboxState state() const { return state_; }
  // The function the sandbox runs; kInvalidFunctionId once cleansed.
  FunctionId current_function() const { return current_function_; }

  NetNamespace& netns() { return netns_; }
  Cgroup& cgroup() { return cgroup_; }
  MountNamespace& mntns() { return mntns_; }
  const std::shared_ptr<UnionFs>& rootfs() const { return rootfs_; }
  // The function-specific overlay currently mounted (may be null).
  const std::shared_ptr<UnionFs>& function_overlay() const { return function_overlay_; }

  // Step B1: terminate processes, purge file modifications, park the sandbox.
  // `process_count` is the number of processes to kill. The purge itself is
  // accounted as deferred work (TrEnv runs it asynchronously).
  SandboxCost Cleanse(uint32_t process_count);

  // Step B2: repurpose an idle sandbox for `function`. Swaps the function
  // overlay (2 mounts), re-applies cgroup limits, resets the netns.
  Result<SandboxCost> Repurpose(FunctionId function, std::shared_ptr<UnionFs> function_overlay,
                                CgroupLimits limits);

  // Marks the sandbox as running a function (used by cold-start paths that
  // build the sandbox directly for one function).
  void Assign(FunctionId function) {
    current_function_ = function;
    state_ = SandboxState::kInUse;
  }

  // Mounts and records a function overlay (cold-start path). Returns the
  // mount cost.
  SimDuration AttachOverlay(std::shared_ptr<UnionFs> overlay);

 private:
  uint64_t id_;
  SandboxState state_ = SandboxState::kInUse;
  FunctionId current_function_ = kInvalidFunctionId;
  NetNamespace netns_;
  Cgroup cgroup_;
  MountNamespace mntns_;
  std::shared_ptr<UnionFs> rootfs_;
  std::shared_ptr<UnionFs> function_overlay_;
};

// Builds sandboxes the cold way (faasd / CRIU baselines) and models the
// per-component costs of Table 1 under concurrency.
class SandboxFactory {
 public:
  SandboxFactory(std::shared_ptr<const FsLayer> base_layer, uint64_t seed = 0x5b);

  struct CreateResult {
    std::unique_ptr<Sandbox> sandbox;
    SandboxCost cost;
  };
  // `concurrent` = number of other sandbox creations in flight. `use_clone_into`
  // selects CLONE_INTO_CGROUP (TrEnv) over spawn-then-migrate (baselines).
  CreateResult CreateCold(FunctionId function, std::shared_ptr<UnionFs> function_overlay,
                          CgroupLimits limits, uint32_t concurrent, bool use_clone_into);

  CgroupManager& cgroup_manager() { return cgroups_; }

 private:
  std::shared_ptr<const FsLayer> base_layer_;
  NetNsFactory netns_factory_;
  CgroupManager cgroups_;
  uint64_t next_id_ = 1;
};

}  // namespace trenv

#endif  // TRENV_SANDBOX_SANDBOX_H_
