// KeepAlivePool: warm instances cached for reuse, LRU-ordered, with a fixed
// TTL (10 minutes, like OpenWhisk) and memory-pressure eviction — the
// scheduling policy all evaluated systems share (paper section 9.1).
//
// Storage is a slot arena: entries live in a vector of slots threaded onto
// three intrusive doubly-linked lists (the global LRU order, the per-function
// list bucketed by interned FunctionId, and the per-density-tier list) and
// indexed by an expiry heap. Park/take/evict are index relinks plus one
// O(log n) heap update, so keep-alive churn — every completed invocation parks
// here, every warm hit takes from here — performs no node allocations and no
// string hashing.
//
// The expiry heap is a binary min-heap of slot indices ordered by (expiry,
// park sequence number); each slot records its heap position, so any entry
// can leave it in O(log n). ExpireStale therefore answers "nothing is due" in
// O(1) from the heap top instead of scanning every parked entry, which
// matters because the platform sweeps on every arrival and after every park,
// on nodes holding thousands of warm environments. Due entries are evicted
// in LRU order, so eviction order is identical to the original std::list +
// std::map implementation.
#ifndef TRENV_PLATFORM_KEEP_ALIVE_POOL_H_
#define TRENV_PLATFORM_KEEP_ALIVE_POOL_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/interner.h"
#include "src/common/time.h"
#include "src/criu/restore_engine.h"

namespace trenv {

class KeepAlivePool {
 public:
  // Receives each evicted instance. It must not add or remove pool entries.
  using EvictFn = std::function<void(std::unique_ptr<FunctionInstance>)>;
  // Sentinel slot index ("no slot"), returned by TierLruHead on empty tiers.
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  KeepAlivePool(SimDuration ttl, EvictFn evict) : ttl_(ttl), evict_(std::move(evict)) {}

  // Parks a warm instance (most-recently-used position). `ttl` overrides the
  // pool default for this entry (per-function policies).
  void Put(std::unique_ptr<FunctionInstance> instance, SimTime now);
  void Put(std::unique_ptr<FunctionInstance> instance, SimTime now, SimDuration ttl);
  // Takes a warm instance of `function` if any (MRU of that function).
  std::unique_ptr<FunctionInstance> TakeWarm(FunctionId function);
  // Evicts the single least-recently-used idle instance. Returns false if
  // the pool is empty.
  bool EvictLru();
  // Evicts every instance whose expiry (park time + the TTL it was parked
  // with) is at or before `now`, least-recently-used first, and returns how
  // many. O(1) when nothing is due; otherwise O(k log n) for k due entries.
  size_t ExpireStale(SimTime now);
  void EvictAll();
  // Discards every parked instance WITHOUT running the evict callback: the
  // node crashed, so there is nothing orderly to tear down.
  void Drop();

  size_t size() const { return size_; }
  // High-water mark of size() over the pool's lifetime (survives Drop).
  size_t peak_size() const { return peak_size_; }
  size_t CountFor(FunctionId function) const {
    return function < by_function_.size() ? by_function_[function].count : 0;
  }

  SimDuration ttl() const { return ttl_; }

  // --- Density-tier aggregates ---------------------------------------------
  // Maintained from each instance's density_tier/footprint_bytes at Put time
  // and adjusted by Retier when the density manager migrates a parked entry.
  size_t CountInTier(DensityTier tier) const { return tier_counts_[static_cast<size_t>(tier)]; }
  uint64_t FootprintInTier(DensityTier tier) const {
    return tier_bytes_[static_cast<size_t>(tier)];
  }
  // Total parked footprint across all tiers (the overcommit ceiling's input).
  uint64_t footprint_bytes() const { return footprint_bytes_; }
  // High-water mark of footprint_bytes() over the pool's lifetime.
  uint64_t peak_footprint_bytes() const { return peak_footprint_bytes_; }

  // Re-buckets a parked entry after the density manager moved it to `tier`
  // and re-stamps its node footprint (demotion moves the private pages into
  // a pool tier, shrinking the node bill to metadata; the instance's own
  // density_tier/footprint_bytes have already been updated).
  void Retier(uint32_t slot, DensityTier tier, uint64_t footprint_bytes);

  // Visits every parked entry in LRU order (coldest first). `fn` gets the
  // slot index (valid for Retier) and the instance; it must not add or
  // remove pool entries.
  template <typename Fn>
  void ForEachLru(Fn&& fn) {
    for (uint32_t slot = lru_head_; slot != kNil;) {
      const uint32_t next = slots_[slot].lru_next;
      fn(slot, *slots_[slot].instance);
      slot = next;
    }
  }

  // Visits only the parked entries in `tier`, coldest first (entries are
  // appended when parked or retiered, so list order is arrival-at-tier
  // order). Migration decisions walk exactly the population they can act on
  // instead of paying for the whole pool: pressure relief walks the hot
  // list, warm-tier evacuation walks the CXL list.
  template <typename Fn>
  void ForEachTierLru(DensityTier tier, Fn&& fn) {
    for (uint32_t slot = tier_head_[static_cast<size_t>(tier)]; slot != kNil;) {
      const uint32_t next = slots_[slot].tier_next;
      fn(slot, *slots_[slot].instance);
      slot = next;
    }
  }

  // Evicts the least-recently-used DRAM-hot entry (the only parked entries
  // still holding node frames); false when none is hot. Last-resort frame
  // relief when every swap tier is full.
  bool EvictHotLru();

  // Coldest parked entry in `tier` (kNoSlot when the tier is empty), and the
  // instance behind a slot. Together with Retier these let the density
  // manager cascade entries down one at a time without walking the tier.
  uint32_t TierLruHead(DensityTier tier) const {
    return tier_head_[static_cast<size_t>(tier)];
  }
  FunctionInstance& InstanceAt(uint32_t slot) { return *slots_[slot].instance; }

 private:
  static constexpr uint32_t kNil = kNoSlot;

  struct Slot {
    std::unique_ptr<FunctionInstance> instance;
    SimTime expiry;
    // Park order: Put appends at the MRU end and nothing moves a parked
    // entry, so ascending seq is LRU order.
    uint64_t seq = 0;
    FunctionId function = kInvalidFunctionId;
    // Index of this slot in expiry_heap_ (kNil once popped for eviction).
    uint32_t heap_pos = kNil;
    // Mirrors instance->density_tier / footprint_bytes so Detach can adjust
    // the aggregates without touching the (possibly moved-out) instance.
    DensityTier tier = DensityTier::kDramHot;
    uint64_t footprint_bytes = 0;
    // Global LRU list links (head = LRU, tail = MRU).
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
    // Per-function list links (tail = that function's MRU).
    uint32_t fn_prev = kNil;
    uint32_t fn_next = kNil;
    // Per-tier list links (the list matching `tier`).
    uint32_t tier_prev = kNil;
    uint32_t tier_next = kNil;
  };
  struct FnList {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    size_t count = 0;
  };

  uint32_t AcquireSlot();
  // Appends `slot` to / removes it from the list of its current tier (link
  // maintenance only; tier aggregates are the caller's job).
  void LinkTier(uint32_t slot);
  void UnlinkTier(uint32_t slot);
  // Unlinks `slot` from every list and the expiry heap and pushes it onto
  // the free list; returns its instance.
  std::unique_ptr<FunctionInstance> Detach(uint32_t slot);
  // Expiry heap maintenance; every move re-stamps the slot's heap_pos.
  bool ExpiresBefore(uint32_t a, uint32_t b) const;
  void HeapPush(uint32_t slot);
  void HeapErase(uint32_t pos);
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);

  SimDuration ttl_;
  EvictFn evict_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<FnList> by_function_;  // indexed by FunctionId; may be sparse
  std::vector<uint32_t> expiry_heap_;  // slot indices, min-heap by (expiry, seq)
  std::vector<uint32_t> due_;          // ExpireStale's scratch: the slots it evicts
  uint64_t next_seq_ = 0;
  uint32_t lru_head_ = kNil;
  uint32_t lru_tail_ = kNil;
  uint32_t tier_head_[kDensityTierCount] = {kNil, kNil, kNil};
  uint32_t tier_tail_[kDensityTierCount] = {kNil, kNil, kNil};
  size_t size_ = 0;
  size_t peak_size_ = 0;
  size_t tier_counts_[kDensityTierCount] = {};
  uint64_t tier_bytes_[kDensityTierCount] = {};
  uint64_t footprint_bytes_ = 0;
  uint64_t peak_footprint_bytes_ = 0;
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_KEEP_ALIVE_POOL_H_
