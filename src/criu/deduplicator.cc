#include "src/criu/deduplicator.h"

#include <algorithm>
#include <vector>

namespace trenv {

namespace {

// Hotness by region class: executable/runtime pages are read on every
// invocation (keep hot); heap/stack are function-private and colder.
double HotnessFor(const MemoryRegion& region) {
  if (region.type == VmaType::kFileBacked) {
    return 1.0;
  }
  return region.name == "[heap]" ? 0.5 : 0.3;
}

}  // namespace

Result<PlacedChunk> SnapshotDedupStore::StoreChunk(const ChunkKey& key, double hotness) {
  auto it = chunk_index_.find(key);
  if (it != chunk_index_.end()) {
    return it->second;  // dedup hit: share the existing placement
  }
  TRENV_ASSIGN_OR_RETURN(PoolPlacement placement, pool_->AllocatePages(key.npages, hotness));
  MemoryBackend* backend = pool_->TierFor(placement.kind);
  TRENV_RETURN_IF_ERROR(
      backend->WriteContent(placement.base, key.npages, key.content_base));
  const PlacedChunk chunk{.pool = placement.kind,
                          .constant_content = key.constant,
                          .offset = placement.base,
                          .npages = key.npages,
                          .content_base = key.content_base};
  chunk_index_.emplace(key, chunk);
  stored_unique_pages_ += key.npages;
  return chunk;
}

Result<ConsolidatedImage> SnapshotDedupStore::Store(const FunctionSnapshot& snapshot) {
  ConsolidatedImage image;
  image.function = snapshot.function;
  const uint64_t unique_before = stored_unique_pages_;

  for (const auto& process : snapshot.processes) {
    std::vector<PlacedRegion> placed_regions;
    for (const auto& region : process.regions) {
      PlacedRegion placed;
      placed.region = region;
      const double hotness = hotness_override_ >= 0.0 ? hotness_override_ : HotnessFor(region);
      uint64_t done = 0;
      while (done < region.npages) {
        const uint64_t n = std::min(kChunkPages, region.npages - done);
        ChunkKey key;
        key.npages = n;
        key.constant = region.constant_content;
        key.content_base =
            region.constant_content ? region.content_base : region.content_base + done;
        TRENV_ASSIGN_OR_RETURN(PlacedChunk chunk, StoreChunk(key, hotness));
        placed.chunks.push_back(chunk);
        done += n;
      }
      image.total_pages += region.npages;
      placed_regions.push_back(std::move(placed));
    }
    image.processes.push_back(std::move(placed_regions));
  }
  total_ingested_pages_ += image.total_pages;
  image.unique_pages = stored_unique_pages_ - unique_before;
  return image;
}

}  // namespace trenv
