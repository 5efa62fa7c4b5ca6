#include "src/platform/testbed.h"

#include "src/fault/fault_injector.h"

namespace trenv {

std::string SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kFaasd:
      return "faasd";
    case SystemKind::kCriu:
      return "CRIU";
    case SystemKind::kReap:
      return "REAP";
    case SystemKind::kReapPlus:
      return "REAP+";
    case SystemKind::kFaasnap:
      return "FaaSnap";
    case SystemKind::kFaasnapPlus:
      return "FaaSnap+";
    case SystemKind::kTrEnvCxl:
      return "T-CXL";
    case SystemKind::kTrEnvRdma:
      return "T-RDMA";
    case SystemKind::kTrEnvTiered:
      return "T-Tiered";
    case SystemKind::kTrEnvDramHot:
      return "T-DRAM-hot";
    case SystemKind::kTrEnvDramLive:
      return "T-DRAM-live";
    case SystemKind::kTrEnvReconfig:
      return "Reconfig";
    case SystemKind::kTrEnvCgroup:
      return "Cgroup";
  }
  return "unknown";
}

namespace {

std::shared_ptr<FsLayer> MakeBaseLayer() {
  auto layer = std::make_shared<FsLayer>("debian-base");
  // Representative base image contents (ids double as page-cache keys).
  layer->AddFile("/lib/libc.so.6", FileNode{2 * kMiB, 0x11, 1});
  layer->AddFile("/usr/bin/python3", FileNode{6 * kMiB, 0x12, 2});
  layer->AddFile("/usr/bin/node", FileNode{80 * kMiB, 0x13, 3});
  layer->AddFile("/etc/passwd", FileNode{4 * kKiB, 0x14, 4});
  return layer;
}

}  // namespace

Testbed::Testbed(SystemKind system, PlatformConfig config)
    : system_(system),
      base_layer_(MakeBaseLayer()),
      // 128 GiB experimental Samsung CXL device; RDMA pool sized generously.
      cxl_(std::make_unique<CxlPool>(128 * kGiB)),
      rdma_(std::make_unique<RdmaPool>(256 * kGiB, config.seed ^ 0x4d)),
      tmpfs_(std::make_unique<DramPool>(64 * kGiB)),
      nas_(std::make_unique<NasPool>(512 * kGiB)),
      sandbox_factory_(base_layer_, config.seed ^ 0x5b) {
  backends_.Register(cxl_.get());
  backends_.Register(rdma_.get());
  backends_.Register(tmpfs_.get());
  if (config.density.enabled) {
    // The NAS spill tier exists only under density tiering: registering it
    // unconditionally would make TrEnv's execution path open (empty) NAS
    // fetch streams and perturb the historical runs.
    backends_.Register(nas_.get());
  }

  // Tier order controls where the dedup store places consolidated images.
  switch (system_) {
    case SystemKind::kTrEnvRdma:
      tiered_.AddTier(rdma_.get());
      break;
    case SystemKind::kTrEnvTiered:
      tiered_.AddTier(cxl_.get());
      tiered_.AddTier(rdma_.get());
      break;
    case SystemKind::kTrEnvDramHot:
    case SystemKind::kTrEnvDramLive:
      // Hot (file-backed, read-every-invocation) regions live in node DRAM,
      // shared by all local instances; colder private regions stay on CXL.
      tiered_.AddTier(tmpfs_.get());
      tiered_.AddTier(cxl_.get());
      break;
    default:
      tiered_.AddTier(cxl_.get());
      break;
  }

  mmt_ = std::make_unique<MmtApi>(&backends_);
  dedup_ = std::make_unique<SnapshotDedupStore>(&tiered_);
  if (system_ == SystemKind::kTrEnvDramLive) {
    // Everything starts on the cold (CXL) tier; DRAM residency is earned
    // through the live promote/demote policy below, never assumed.
    dedup_->set_hotness_override(0.0);
  }

  switch (system_) {
    case SystemKind::kFaasd:
      engine_ = std::make_unique<ColdStartEngine>(&sandbox_factory_, &sandbox_pool_);
      break;
    case SystemKind::kCriu:
      engine_ = std::make_unique<VanillaCriuEngine>(&sandbox_factory_, &sandbox_pool_);
      break;
    case SystemKind::kReap:
      engine_ = std::make_unique<ReapEngine>(&sandbox_factory_, &sandbox_pool_,
                                             ReapEngine::Options{.pooled_netns = false});
      break;
    case SystemKind::kReapPlus:
      engine_ = std::make_unique<ReapEngine>(&sandbox_factory_, &sandbox_pool_,
                                             ReapEngine::Options{.pooled_netns = true});
      break;
    case SystemKind::kFaasnap:
      engine_ = std::make_unique<FaasnapEngine>(&sandbox_factory_, &sandbox_pool_,
                                                /*pooled_netns=*/false);
      break;
    case SystemKind::kFaasnapPlus:
      engine_ = std::make_unique<FaasnapEngine>(&sandbox_factory_, &sandbox_pool_,
                                                /*pooled_netns=*/true);
      break;
    case SystemKind::kTrEnvCxl:
    case SystemKind::kTrEnvRdma:
    case SystemKind::kTrEnvTiered:
    case SystemKind::kTrEnvDramHot:
    case SystemKind::kTrEnvDramLive: {
      engine_ = std::make_unique<TrEnvEngine>(
          &sandbox_factory_, &sandbox_pool_, mmt_.get(), dedup_.get(),
          TrEnvEngine::Options{.prefetch = config.trenv_prefetch});
      break;
    }
    case SystemKind::kTrEnvReconfig:
      engine_ = std::make_unique<TrEnvEngine>(
          &sandbox_factory_, &sandbox_pool_, mmt_.get(), dedup_.get(),
          TrEnvEngine::Options{.repurpose_sandbox = true,
                               .clone_into_cgroup = false,
                               .use_mm_template = false});
      break;
    case SystemKind::kTrEnvCgroup:
      engine_ = std::make_unique<TrEnvEngine>(
          &sandbox_factory_, &sandbox_pool_, mmt_.get(), dedup_.get(),
          TrEnvEngine::Options{.repurpose_sandbox = true,
                               .clone_into_cgroup = true,
                               .use_mm_template = false});
      break;
  }
  if (system_ == SystemKind::kTrEnvDramLive) {
    // The hot-tier budget sits well under the pinned split's tmpfs usage: the
    // policy must choose which chunks deserve node DRAM rather than pinning
    // them all.
    promotion_ = std::make_unique<PromotionManager>(&tiered_, &mmt_->registry());
    static_cast<TrEnvEngine*>(engine_.get())->EnablePromotion(promotion_.get());
  }
  // The trace process defaults to the evaluated system's name, so multi-
  // testbed comparisons show up as separate processes in one trace.
  if (config.tracer != nullptr && config.trace_process == "platform") {
    config.trace_process = SystemName(system_);
  }
  platform_ = std::make_unique<ServerlessPlatform>(config, engine_.get(), &backends_);

  // Route pool / mm-template stats into the platform's own registry, so one
  // dump covers the whole stack of this testbed.
  obs::Registry* stats = &platform_->metrics().registry();
  cxl_->BindStats(stats);
  rdma_->BindStats(stats);
  tmpfs_->BindStats(stats);
  if (config.density.enabled) {
    nas_->BindStats(stats);
  }
  mmt_->BindStats(stats);
}

Status Testbed::DeployTable4Functions() {
  for (const FunctionProfile& profile : Table4Functions()) {
    sandbox_pool_.RegisterFunctionLayer(
        profile.name, std::make_shared<FsLayer>(profile.name + "-deps"));
    TRENV_RETURN_IF_ERROR(platform_->Deploy(profile));
  }
  return Status::Ok();
}

void Testbed::BindFaultInjector(FaultInjector* injector) {
  if (injector != nullptr) {
    injector->BindClock(&platform_->scheduler());
  }
  cxl_->BindFaultInjector(injector);
  rdma_->BindFaultInjector(injector);
  tmpfs_->BindFaultInjector(injector);
  nas_->BindFaultInjector(injector);
}

}  // namespace trenv
