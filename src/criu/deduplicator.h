// SnapshotDedupStore: step A2 of the paper's preprocessing — deduplicates
// snapshots into consolidated images on a remote memory pool, so identical
// regions (language runtimes, common libraries) are stored once per rack and
// shared by every function, instance, and node.
//
// Dedup granularity is a fixed chunk (default 2 MiB = 512 pages): regions
// are cut into chunks and each distinct chunk content is stored once. This
// captures both whole-region sharing and common prefixes.
#ifndef TRENV_CRIU_DEDUPLICATOR_H_
#define TRENV_CRIU_DEDUPLICATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/criu/process_image.h"
#include "src/mempool/tiered_pool.h"

namespace trenv {

// Where one region of a consolidated image lives: a list of (pool, offset)
// chunk placements in region order. Each chunk also carries its logical
// content: page i holds content_base + i, or content_base on every page when
// constant_content. Equal content means one chunk, so the pool control plane
// (src/poolmgr/) hashes it into the shard key it places on its
// consistent-hash ring. constant_content sits beside pool, where the struct
// has padding anyway: every deployed function holds its own chunk list.
struct PlacedChunk {
  PoolKind pool;
  bool constant_content = false;
  PoolOffset offset;  // pool page offset of the chunk start
  uint64_t npages;
  PageContent content_base = kZeroPageContent;
};

struct PlacedRegion {
  MemoryRegion region;
  std::vector<PlacedChunk> chunks;
};

struct ConsolidatedImage {
  std::string function;
  // Mirrors FunctionSnapshot::processes.
  std::vector<std::vector<PlacedRegion>> processes;
  uint64_t total_pages = 0;   // pages in the snapshot
  uint64_t unique_pages = 0;  // pages newly stored for this snapshot
};

class SnapshotDedupStore {
 public:
  // Regions are split into chunks of at most this many pages (2 MiB).
  static constexpr uint64_t kChunkPages = 512;

  // Stores chunks in `pool`. Hotness for tiered placement is derived from
  // the region class (runtime/code hot, heap colder).
  explicit SnapshotDedupStore(TieredPool* pool) : pool_(pool) {}

  Result<ConsolidatedImage> Store(const FunctionSnapshot& snapshot);

  // Forces every chunk stored from now on to use this hotness instead of the
  // region-class heuristic. Lets a *live* placement policy start everything
  // cold and earn its way up (the ablation's T-DRAM-live configuration).
  // Negative (default) = use the heuristic.
  void set_hotness_override(double hotness) { hotness_override_ = hotness; }

  // Global dedup statistics.
  uint64_t total_ingested_pages() const { return total_ingested_pages_; }
  uint64_t stored_unique_pages() const { return stored_unique_pages_; }
  double DedupRatio() const {
    return total_ingested_pages_ == 0
               ? 1.0
               : static_cast<double>(stored_unique_pages_) /
                     static_cast<double>(total_ingested_pages_);
  }

 private:
  // Key identifying a chunk's logical content.
  struct ChunkKey {
    PageContent content_base;
    uint64_t npages;
    bool constant;
    auto operator<=>(const ChunkKey&) const = default;
  };

  Result<PlacedChunk> StoreChunk(const ChunkKey& key, double hotness);

  TieredPool* pool_;
  double hotness_override_ = -1.0;
  std::map<ChunkKey, PlacedChunk> chunk_index_;
  uint64_t total_ingested_pages_ = 0;
  uint64_t stored_unique_pages_ = 0;
};

}  // namespace trenv

#endif  // TRENV_CRIU_DEDUPLICATOR_H_
