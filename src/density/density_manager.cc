#include "src/density/density_manager.h"

#include <cmath>
#include <string>
#include <vector>

#include "src/common/cost_model.h"
#include "src/common/log.h"
#include "src/criu/restore_engine.h"
#include "src/density/footprint.h"

namespace trenv {
namespace {

// Pool tiers backing the CXL-warm / NAS-cold rungs; a node without the cold
// pool has no bottom rung.
constexpr PoolKind kWarmPool = PoolKind::kCxl;
constexpr PoolKind kColdPool = PoolKind::kNas;
// Per-function traffic signal: an exponentially-decayed arrival score with
// this half-life. Functions scoring above kHotTrafficFloor stay DRAM-hot at
// any age (demoting them would just buy a promotion fetch).
constexpr SimDuration kTrafficHalfLife = SimDuration::Seconds(30);
constexpr double kHotTrafficFloor = 4.0;

}  // namespace

DensityManager::DensityManager(const DensityConfig& config, KeepAlivePool* keep_alive,
                               FrameAllocator* frames, EventScheduler* scheduler,
                               const BackendRegistry* backends, obs::Registry& stats)
    : enabled_(config.enabled),
      config_(config),
      keep_alive_(keep_alive),
      frames_(frames),
      scheduler_(scheduler) {
  if (!enabled_) {
    return;
  }
  warm_ = backends != nullptr ? backends->Get(kWarmPool) : nullptr;
  cold_ = backends != nullptr ? backends->Get(kColdPool) : nullptr;
  if (warm_ == nullptr) {
    TRENV_WARN << "density: warm pool backend missing; tiering disabled";
    enabled_ = false;
    return;
  }
  demotions_ = stats.GetCounter("density.demotions");
  promotions_ = stats.GetCounter("density.promotions");
  demoted_pages_ = stats.GetCounter("density.demoted_pages");
  promoted_pages_ = stats.GetCounter("density.promoted_pages");
  pressure_storms_ = stats.GetCounter("density.pressure_storms");
  for (size_t i = 0; i < kDensityTierCount; ++i) {
    const std::string tier(DensityTierName(static_cast<DensityTier>(i)));
    tier_count_gauges_[i] = stats.GetGauge("density.tier." + tier + ".count");
    tier_bytes_gauges_[i] = stats.GetGauge("density.tier." + tier + ".bytes");
  }
}

MemoryBackend* DensityManager::BackendForSwap(PoolKind kind) const {
  if (warm_ != nullptr && warm_->kind() == kind) {
    return warm_;
  }
  if (cold_ != nullptr && cold_->kind() == kind) {
    return cold_;
  }
  return nullptr;
}

void DensityManager::OnArrival(FunctionId fn, SimTime now) {
  if (fn == kInvalidFunctionId) {
    return;
  }
  if (traffic_.size() <= fn) {
    traffic_.resize(fn + 1);
  }
  Traffic& t = traffic_[fn];
  const double half = kTrafficHalfLife.seconds();
  t.score = t.score * std::exp2(-(now - t.last).seconds() / half) + 1.0;
  t.last = now;
}

double DensityManager::TrafficScore(FunctionId fn, SimTime now) const {
  if (fn >= traffic_.size() || traffic_[fn].score == 0.0) {
    return 0.0;
  }
  const Traffic& t = traffic_[fn];
  return t.score * std::exp2(-(now - t.last).seconds() / kTrafficHalfLife.seconds());
}

void DensityManager::OnPark(FunctionInstance& instance) {
  // Fresh from execution: dirty pages are frame-resident, so the instance
  // re-enters the ladder at the top.
  instance.density_tier = DensityTier::kDramHot;
  instance.footprint_bytes = FootprintModel::Of(instance).NodeBytes();
  ArmSweep();
}

SimDuration DensityManager::OnTake(FunctionInstance& instance) {
  SimDuration latency;
  if (instance.density_tier != DensityTier::kDramHot) {
    const uint64_t pages = instance.swapped_out_pages;
    if (pages > 0) {
      MemoryBackend* src = BackendForSwap(instance.swap_pool);
      // TrEnv-style lazy attach: block only on re-mapping the swap block's
      // page-table runs; the pages stream back on demand while the
      // invocation runs, billed to it via pending_demand_fetch.
      const double metadata_bytes =
          static_cast<double>(pages) * cost::kMmtMetadataBytesPerPage;
      latency = cost::kMmtIoctl +
                SimDuration::FromSecondsF(metadata_bytes / cost::kMmtAttachCopyBytesPerSec);
      const SimDuration fetch = src->FetchLatency(pages);
      auto frames = frames_->AllocatePages(pages);
      while (!frames.ok() && keep_alive_->EvictLru()) {
        frames = frames_->AllocatePages(pages);
      }
      if (!frames.ok()) {
        // Physical DRAM exhausted with nothing evictable left — the soft cap
        // is sized well under physical capacity, so this is a config error.
        TRENV_WARN << "density: promote could not re-charge " << pages << " frames";
      }
      (void)src->FreePages(instance.swap_base, pages);
      instance.swapped_out_pages = 0;
      instance.swap_base = 0;
      instance.swap_pool = PoolKind::kLocalDram;
      instance.pending_demand_fetch = fetch;
      promoted_pages_->Add(static_cast<double>(pages));
    }
    promotions_->Increment();
    instance.density_tier = DensityTier::kDramHot;
  }
  attach_ms_.RecordDuration(latency);
  return latency;
}

void DensityManager::OnRetire(FunctionInstance& instance) {
  if (instance.swapped_out_pages == 0) {
    return;
  }
  MemoryBackend* src = BackendForSwap(instance.swap_pool);
  if (src != nullptr) {
    (void)src->FreePages(instance.swap_base, instance.swapped_out_pages);
  }
  instance.swap_base = 0;
  // swapped_out_pages stays set: ResidentLocalPages() must keep excluding
  // the swapped pages so the engine's Retire frees only frames still held.
}

void DensityManager::OnCrash() {
  // Pool contents are about to be dropped without orderly teardown; the swap
  // blocks live in the (surviving) shared pools and must not leak.
  keep_alive_->ForEachLru([&](uint32_t, FunctionInstance& instance) {
    if (instance.swapped_out_pages > 0) {
      MemoryBackend* src = BackendForSwap(instance.swap_pool);
      if (src != nullptr) {
        (void)src->FreePages(instance.swap_base, instance.swapped_out_pages);
      }
      instance.swap_base = 0;
    }
  });
  // The pending sweep event dies with the scheduler's queue.
  sweep_armed_ = false;
}

bool DensityManager::Demote(FunctionInstance& instance, DensityTier to) {
  MemoryBackend* dst = to == DensityTier::kCxlWarm ? warm_ : cold_;
  if (dst == nullptr) {
    return false;
  }
  if (instance.density_tier == DensityTier::kDramHot) {
    const uint64_t pages = instance.ResidentLocalPages();
    if (pages > 0) {
      auto base = dst->AllocatePages(pages);
      if (!base.ok() && to == DensityTier::kCxlWarm) {
        // Warm tier full. A freshly demoted env is the likeliest in the
        // whole pool to be re-attached, so it must land on the fast tier:
        // cascade the warm tier's coldest entries down to NAS to make room,
        // and only land on NAS directly when the cascade cannot.
        if (EvacuateWarm(pages)) {
          base = dst->AllocatePages(pages);
        }
        if (!base.ok() && cold_ != nullptr) {
          dst = cold_;
          to = DensityTier::kNasCold;
          base = dst->AllocatePages(pages);
        }
      }
      if (!base.ok()) {
        return false;  // every reachable tier full; the instance stays put
      }
      frames_->FreePages(pages);
      instance.swap_pool = dst->kind();
      instance.swap_base = *base;
      instance.swapped_out_pages = pages;
      // Background copy (off any attach path): it still loads the tier, so
      // it counts into the tier's fetch stats and meets its injected faults.
      (void)dst->FetchLatency(pages);
      demoted_pages_->Add(static_cast<double>(pages));
    }
  } else {
    // CXL-warm -> NAS-cold: move the existing swap block one rung down.
    const uint64_t pages = instance.swapped_out_pages;
    if (pages > 0) {
      MemoryBackend* src = BackendForSwap(instance.swap_pool);
      auto base = dst->AllocatePages(pages);
      if (!base.ok()) {
        return false;
      }
      if (src != nullptr) {
        (void)src->FreePages(instance.swap_base, pages);
      }
      instance.swap_pool = dst->kind();
      instance.swap_base = *base;
      (void)dst->FetchLatency(pages);
      demoted_pages_->Add(static_cast<double>(pages));
    }
  }
  instance.density_tier = to;
  demotions_->Increment();
  return true;
}

bool DensityManager::EvacuateWarm(uint64_t pages) {
  if (cold_ == nullptr) {
    return false;
  }
  const uint64_t need = pages * kPageSize;
  while (warm_->capacity_bytes() - warm_->used_bytes() < need) {
    const uint32_t slot = keep_alive_->TierLruHead(DensityTier::kCxlWarm);
    if (slot == KeepAlivePool::kNoSlot) {
      return false;  // nothing left to cascade (templates fill the rest)
    }
    FunctionInstance& victim = keep_alive_->InstanceAt(slot);
    if (!Demote(victim, DensityTier::kNasCold)) {
      return false;  // NAS full as well
    }
    victim.footprint_bytes = FootprintModel::Of(victim).NodeBytes();
    // Retier relinks the victim onto the NAS list, advancing the warm head.
    keep_alive_->Retier(slot, DensityTier::kNasCold, victim.footprint_bytes);
  }
  return true;
}

uint64_t DensityManager::RelievePressure(uint64_t target_bytes) {
  if (!enabled_ || frames_->used_bytes() <= target_bytes) {
    return 0;
  }
  struct Cand {
    uint32_t slot;
    FunctionInstance* instance;
  };
  std::vector<Cand> cands;
  keep_alive_->ForEachTierLru(
      DensityTier::kDramHot,
      [&](uint32_t slot, FunctionInstance& instance) { cands.push_back({slot, &instance}); });
  const uint64_t before = frames_->used_bytes();
  for (const Cand& c : cands) {
    if (frames_->used_bytes() <= target_bytes) {
      break;
    }
    if (Demote(*c.instance, DensityTier::kCxlWarm)) {
      // The dirty pages now live in a pool tier, not node DRAM: the parked
      // entry's node bill shrinks to page-table/VMA metadata.
      c.instance->footprint_bytes = FootprintModel::Of(*c.instance).NodeBytes();
      keep_alive_->Retier(c.slot, c.instance->density_tier, c.instance->footprint_bytes);
    }
  }
  UpdateGauges(scheduler_->now());
  return before - frames_->used_bytes();
}

void DensityManager::NotePressureStorm() { pressure_storms_->Increment(); }

void DensityManager::ArmSweep() {
  if (sweep_armed_) {
    return;
  }
  sweep_armed_ = true;
  scheduler_->ScheduleAfter(config_.sweep_interval, [this] { SweepNow(); });
}

void DensityManager::SweepNow() {
  sweep_armed_ = false;
  const SimTime now = scheduler_->now();
  struct Cand {
    uint32_t slot;
    FunctionInstance* instance;
    DensityTier to;
  };
  std::vector<Cand> cands;
  // True while some parked instance could still move down a rung later: the
  // sweep re-arms only then, so an all-cold (or empty) pool lets the event
  // chain die and RunUntilIdle terminate.
  bool pending = false;
  keep_alive_->ForEachLru([&](uint32_t slot, FunctionInstance& instance) {
    DensityTier to;
    SimDuration threshold;
    if (instance.density_tier == DensityTier::kDramHot) {
      to = DensityTier::kCxlWarm;
      threshold = config_.demote_hot_after;
    } else if (instance.density_tier == DensityTier::kCxlWarm && cold_ != nullptr) {
      to = DensityTier::kNasCold;
      threshold = config_.demote_warm_after;
    } else {
      return;  // already at the coldest reachable rung
    }
    if (now - instance.last_used >= threshold &&
        TrafficScore(instance.function_id(), now) < kHotTrafficFloor) {
      cands.push_back({slot, &instance, to});
    } else {
      pending = true;  // too young or too trafficked — revisit next sweep
    }
  });
  for (const Cand& c : cands) {
    if (Demote(*c.instance, c.to)) {
      c.instance->footprint_bytes = FootprintModel::Of(*c.instance).NodeBytes();
      keep_alive_->Retier(c.slot, c.instance->density_tier, c.instance->footprint_bytes);
      if (c.instance->density_tier == DensityTier::kCxlWarm && cold_ != nullptr) {
        pending = true;  // one more rung below
      }
    } else {
      pending = true;  // destination tier full — retry next sweep
    }
  }
  UpdateGauges(now);
  if (pending) {
    ArmSweep();
  }
}

void DensityManager::UpdateGauges(SimTime now) {
  for (size_t i = 0; i < kDensityTierCount; ++i) {
    const DensityTier tier = static_cast<DensityTier>(i);
    const double count = static_cast<double>(keep_alive_->CountInTier(tier));
    timeline_[i].Set(now, count);
    tier_count_gauges_[i]->Set(count);
    tier_bytes_gauges_[i]->Set(static_cast<double>(keep_alive_->FootprintInTier(tier)));
  }
}

}  // namespace trenv
