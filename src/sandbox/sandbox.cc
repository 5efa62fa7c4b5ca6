#include "src/sandbox/sandbox.h"

#include <string>
#include <utility>

namespace trenv {

Sandbox::Sandbox(uint64_t id, NetNamespace netns, Cgroup cgroup, std::shared_ptr<UnionFs> rootfs)
    : id_(id), netns_(std::move(netns)), cgroup_(std::move(cgroup)), rootfs_(std::move(rootfs)) {
  // A live sandbox always has the standard mounts.
  mntns_.Mount("/", MountKind::kOverlay, rootfs_);
  mntns_.Mount("/proc", MountKind::kProc);
  mntns_.Mount("/sys", MountKind::kSysfs);
  mntns_.Mount("/dev", MountKind::kDevTmpfs);
}

SandboxCost Sandbox::Cleanse(uint32_t process_count) {
  SandboxCost cost;
  // Kill every process of the finished instance (synchronous: security).
  cost.other += cost::kProcessKill * static_cast<double>(process_count);
  cgroup_.ClearProcesses();
  // Forcibly close network connections; config/statistics survive.
  cost.network += netns_.ResetForReuse();
  // Purge the upper dirs: deleting N files + an overlayfs remount. TrEnv
  // executes this asynchronously (section 5.2.1), so it is deferred cost.
  uint64_t purged = rootfs_->PurgeUpper();
  if (function_overlay_ != nullptr) {
    purged += function_overlay_->PurgeUpper();
  }
  cost.deferred += cost::kUpperDirDeletePerFile * static_cast<double>(purged) +
                   cost::kOverlayRemount;
  state_ = SandboxState::kIdle;
  current_function_ = kInvalidFunctionId;
  return cost;
}

Result<SandboxCost> Sandbox::Repurpose(FunctionId function,
                                       std::shared_ptr<UnionFs> function_overlay,
                                       CgroupLimits limits) {
  if (state_ == SandboxState::kInUse) {
    return Status::FailedPrecondition("sandbox still in use by " +
                                      std::string(FunctionName(current_function_)));
  }
  SandboxCost cost;
  // Swap the function-specific overlay: unmount the old (if any), mount the
  // new, and refresh /proc for the joining processes — TrEnv's "only 2
  // mounts at minimum" path.
  if (function_overlay_ != nullptr) {
    auto umount = mntns_.Umount("/app");
    if (umount.ok()) {
      cost.rootfs += *umount;
    }
  }
  function_overlay_ = std::move(function_overlay);
  cost.rootfs += mntns_.Mount("/app", MountKind::kOverlay, function_overlay_);
  cost.rootfs += mntns_.Mount("/proc", MountKind::kProc);
  // Restore the pending function's resource limits.
  cost.cgroup += cgroup_.Reconfigure(limits);
  // The netns was already reset during cleansing; nothing further unless the
  // previous tenant customized it.
  if (netns_.HasCustomConfig()) {
    cost.network += netns_.FullReset();
  }
  current_function_ = function;
  state_ = SandboxState::kInUse;
  return cost;
}

SandboxFactory::SandboxFactory(std::shared_ptr<const FsLayer> base_layer, uint64_t seed)
    : base_layer_(std::move(base_layer)), cgroups_(seed) {}

SandboxFactory::CreateResult SandboxFactory::CreateCold(
    FunctionId function, std::shared_ptr<UnionFs> function_overlay, CgroupLimits limits,
    uint32_t concurrent, bool use_clone_into) {
  CreateResult result;
  result.cost.network = NetNsFactory::CreateCost(concurrent);
  result.cost.rootfs = MountNamespace::ColdSetupCost(concurrent);
  result.cost.cgroup = cgroups_.CreateCost() + (use_clone_into
                                                    ? cgroups_.CloneIntoCost()
                                                    : cgroups_.MigrateCost(concurrent));
  result.cost.other = cost::kMiscNamespaces;

  auto rootfs = std::make_shared<UnionFs>();
  rootfs->PushLower(base_layer_);
  result.sandbox = std::make_unique<Sandbox>(next_id_++, netns_factory_.Create(),
                                             cgroups_.Create(limits), std::move(rootfs));
  if (function_overlay != nullptr) {
    result.cost.rootfs += result.sandbox->AttachOverlay(std::move(function_overlay));
  }
  result.sandbox->Assign(function);
  return result;
}

SimDuration Sandbox::AttachOverlay(std::shared_ptr<UnionFs> overlay) {
  function_overlay_ = std::move(overlay);
  return mntns_.Mount("/app", MountKind::kOverlay, function_overlay_);
}

}  // namespace trenv
