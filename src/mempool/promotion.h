// PromotionManager: the multi-layer hot/cold placement policy sketched in
// paper Fig 1 and section 9.5 — "a multi-layered architecture that
// strategically places hot pages in CXL and cold pages in RDMA integrates
// seamlessly with our approach". Tracks per-chunk access counts reported by
// the engines, halves them every sweep, migrates the hottest cold-tier chunks
// upward and, once the hot tier is over its budget, the coldest hot-tier
// chunks back down. Templates referencing moved chunks are rewritten in place
// (all pool state is read-only, so migration is a copy + PTE rewrite, never a
// coherence problem). The constants are T-DRAM-live's (src/platform/testbed).
#ifndef TRENV_MEMPOOL_PROMOTION_H_
#define TRENV_MEMPOOL_PROMOTION_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/mempool/tiered_pool.h"
#include "src/mmtemplate/registry.h"

namespace trenv {

class PromotionManager {
 public:
  // A non-hot-tier chunk is promoted once its heat, halved by the sweep,
  // is at least this.
  static constexpr uint64_t kPromoteThreshold = 4;
  // Chunks moved up, and chunks moved down, per sweep (bounds the migration
  // burst).
  static constexpr size_t kMaxPromotionsPerSweep = 16;
  static constexpr size_t kMaxDemotionsPerSweep = 16;
  // When the hottest tier holds more than this many tracked pages (128 MiB),
  // the coldest hot-tier chunks move back down at sweep time.
  static constexpr uint64_t kHotTierBudgetPages = 32 * 1024;
  // A hot-tier chunk is demotion-eligible only while its halved heat sits
  // below this (recently-hot chunks are never churned out).
  static constexpr uint64_t kDemoteThreshold = 2;

  PromotionManager(TieredPool* pool, MmTemplateRegistry* templates)
      : pool_(pool), templates_(templates) {}

  // Records that `touches` accesses hit the chunk at `placement`.
  void RecordAccess(const PoolPlacement& placement, uint64_t touches);

  struct Move {
    PoolPlacement from;
    PoolPlacement to;
    SimDuration copy_latency;
    uint64_t templates_rewritten = 0;
  };

  // Halves every chunk's heat, promotes up to kMaxPromotionsPerSweep of the
  // hottest eligible chunks, then demotes the coldest hot-tier chunks until
  // the tier fits its budget. Every registered template that mapped a moved
  // chunk is rewritten. Returns all moves performed, promotions first (empty
  // when nothing is eligible).
  std::vector<Move> Sweep();

  uint64_t promoted_chunks() const { return promoted_chunks_; }
  uint64_t demoted_chunks() const { return demoted_chunks_; }
  size_t tracked_chunks() const { return heat_.size(); }

 private:
  struct ChunkKey {
    PoolKind kind;
    PoolOffset base;
    uint64_t npages;
    auto operator<=>(const ChunkKey&) const = default;
  };

  // Moves one chunk and rewrites the templates that mapped it.
  bool ApplyMove(const ChunkKey& key, uint64_t heat, bool up, std::vector<Move>* moves);

  TieredPool* pool_;
  MmTemplateRegistry* templates_;
  std::map<ChunkKey, uint64_t> heat_;
  uint64_t promoted_chunks_ = 0;
  uint64_t demoted_chunks_ = 0;
};

// Rewrites every PTE run in `table` whose backing lies inside the moved
// chunk so it points at the new placement (flags updated to the new tier's
// access mode). Returns the number of pages rewritten.
uint64_t RemapBacking(PageTable& table, const PoolPlacement& from, const PoolPlacement& to,
                      bool to_byte_addressable);

}  // namespace trenv

#endif  // TRENV_MEMPOOL_PROMOTION_H_
