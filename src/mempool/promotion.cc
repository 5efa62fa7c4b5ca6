#include "src/mempool/promotion.h"

#include <algorithm>

namespace trenv {

void PromotionManager::RecordAccess(const PoolPlacement& placement, uint64_t touches) {
  if (touches == 0 || placement.npages == 0 || pool_->tier_count() == 0) {
    return;
  }
  // Chunks below the hottest tier are promotion candidates; the halved heat
  // of hot-tier chunks decides which ones get churned out when the tier is
  // over budget.
  heat_[ChunkKey{placement.kind, placement.base, placement.npages}] += touches;
}

uint64_t RemapBacking(PageTable& table, const PoolPlacement& from, const PoolPlacement& to,
                      bool to_byte_addressable) {
  // Collect matching run slices first (the rewrite mutates the table).
  struct Slice {
    Vpn vpn;
    uint64_t npages;
    uint64_t chunk_offset;  // pages into the moved chunk
    PageContent content_base;
    bool constant_content;
  };
  std::vector<Slice> slices;
  table.ForEachRun([&](Vpn vpn, const PteRun& run) {
    // Pool-kind + backing match (not remote()): a chunk promoted into a
    // local-DRAM tmpfs tier still carries its backing offset and must be
    // matched when it is later demoted back out.
    if (run.flags.pool != from.kind || run.backing_base == kNoBacking) {
      return;
    }
    const uint64_t run_lo = run.backing_base;
    const uint64_t run_hi = run.backing_base + run.npages;
    const uint64_t chunk_lo = from.base;
    const uint64_t chunk_hi = from.base + from.npages;
    const uint64_t lo = std::max(run_lo, chunk_lo);
    const uint64_t hi = std::min(run_hi, chunk_hi);
    if (lo >= hi) {
      return;
    }
    Slice slice;
    slice.vpn = vpn + (lo - run_lo);
    slice.npages = hi - lo;
    slice.chunk_offset = lo - chunk_lo;
    slice.content_base =
        run.constant_content ? run.content_base : run.content_base + (lo - run_lo);
    slice.constant_content = run.constant_content;
    slices.push_back(slice);
  });

  uint64_t rewritten = 0;
  for (const Slice& slice : slices) {
    PteFlags flags;
    flags.pool = to.kind;
    flags.valid = to_byte_addressable;  // CXL: pre-populated; RDMA/NAS: lazy
    flags.write_protected = true;
    table.MapRange(slice.vpn, slice.npages, flags, to.base + slice.chunk_offset,
                   slice.content_base, slice.constant_content);
    rewritten += slice.npages;
  }
  return rewritten;
}

bool PromotionManager::ApplyMove(const ChunkKey& key, uint64_t heat, bool up,
                                 std::vector<Move>* moves) {
  PoolPlacement placement{key.kind, key.base, key.npages};
  auto moved = up ? pool_->Promote(placement) : pool_->Demote(placement);
  if (!moved.ok()) {
    return false;  // destination tier full or missing: leave the chunk alone
  }
  Move move;
  move.from = placement;
  move.to = moved->placement;
  move.copy_latency = moved->copy_latency;
  // Rewrite every template that mapped the old chunk.
  const bool byte_addressable = pool_->TierFor(move.to.kind) != nullptr &&
                                pool_->TierFor(move.to.kind)->byte_addressable();
  templates_->ForEach([&](MmTemplate& tmpl) {
    if (RemapBacking(tmpl.mm().page_table(), move.from, move.to, byte_addressable) > 0) {
      ++move.templates_rewritten;
    }
  });
  // Keep tracking the chunk under its new placement so it stays eligible for
  // future moves in either direction.
  heat_[ChunkKey{move.to.kind, move.to.base, move.to.npages}] = heat;
  heat_.erase(key);
  if (up) {
    ++promoted_chunks_;
  } else {
    ++demoted_chunks_;
  }
  moves->push_back(move);
  return true;
}

std::vector<PromotionManager::Move> PromotionManager::Sweep() {
  std::vector<Move> moves;
  if (pool_->tier_count() == 0) {
    return moves;
  }
  // Halve every chunk's heat. Zero-heat entries stay tracked: for hot-tier
  // chunks they are exactly the coldest demotion candidates.
  for (auto& [key, heat] : heat_) {
    heat /= 2;
  }
  const PoolKind hot_kind = pool_->tier(0)->kind();

  // Hottest-first candidates over the threshold.
  std::vector<std::pair<uint64_t, ChunkKey>> candidates;
  for (const auto& [key, heat] : heat_) {
    if (key.kind != hot_kind && heat >= kPromoteThreshold) {
      candidates.emplace_back(heat, key);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  size_t promoted = 0;
  for (const auto& [heat, key] : candidates) {
    if (promoted >= kMaxPromotionsPerSweep) {
      break;
    }
    if (ApplyMove(key, heat, /*up=*/true, &moves)) {
      ++promoted;
    }
  }

  // Budget-driven demotion: churn the coldest hot-tier chunks out until the
  // tier fits (coldest-first; key order breaks heat ties deterministically).
  if (pool_->tier_count() > 1) {
    uint64_t hot_pages = 0;
    std::vector<std::pair<uint64_t, ChunkKey>> coldest;
    for (const auto& [key, heat] : heat_) {
      if (key.kind != hot_kind) {
        continue;
      }
      hot_pages += key.npages;
      if (heat < kDemoteThreshold) {
        coldest.emplace_back(heat, key);
      }
    }
    std::sort(coldest.begin(), coldest.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second < b.second;
    });
    size_t demoted = 0;
    for (const auto& [heat, key] : coldest) {
      if (hot_pages <= kHotTierBudgetPages || demoted >= kMaxDemotionsPerSweep) {
        break;
      }
      if (ApplyMove(key, heat, /*up=*/false, &moves)) {
        ++demoted;
        hot_pages -= key.npages;
      }
    }
  }
  return moves;
}

}  // namespace trenv
