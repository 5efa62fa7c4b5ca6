#include "src/platform/keep_alive_pool.h"

#include <algorithm>
#include <cassert>

namespace trenv {

uint32_t KeepAlivePool::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

std::unique_ptr<FunctionInstance> KeepAlivePool::Detach(uint32_t slot) {
  Slot& s = slots_[slot];
  // Global LRU list.
  if (s.lru_prev != kNil) {
    slots_[s.lru_prev].lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != kNil) {
    slots_[s.lru_next].lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
  // Per-function list.
  FnList& fn = by_function_[s.function];
  if (s.fn_prev != kNil) {
    slots_[s.fn_prev].fn_next = s.fn_next;
  } else {
    fn.head = s.fn_next;
  }
  if (s.fn_next != kNil) {
    slots_[s.fn_next].fn_prev = s.fn_prev;
  } else {
    fn.tail = s.fn_prev;
  }
  --fn.count;
  --size_;
  if (s.heap_pos != kNil) {
    HeapErase(s.heap_pos);
  }
  UnlinkTier(slot);
  --tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] -= s.footprint_bytes;
  footprint_bytes_ -= s.footprint_bytes;
  std::unique_ptr<FunctionInstance> instance = std::move(s.instance);
  s = Slot{};
  free_slots_.push_back(slot);
  return instance;
}

void KeepAlivePool::Put(std::unique_ptr<FunctionInstance> instance, SimTime now) {
  Put(std::move(instance), now, ttl_);
}

void KeepAlivePool::Put(std::unique_ptr<FunctionInstance> instance, SimTime now,
                        SimDuration ttl) {
  assert(instance != nullptr);
  instance->last_used = now;
  const FunctionId function = instance->function_id();
  const uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.tier = instance->density_tier;
  s.footprint_bytes = instance->footprint_bytes;
  ++tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] += s.footprint_bytes;
  footprint_bytes_ += s.footprint_bytes;
  if (footprint_bytes_ > peak_footprint_bytes_) {
    peak_footprint_bytes_ = footprint_bytes_;
  }
  s.instance = std::move(instance);
  s.expiry = now + ttl;
  s.seq = next_seq_++;
  s.function = function;
  HeapPush(slot);
  // Link at the global MRU position.
  s.lru_prev = lru_tail_;
  s.lru_next = kNil;
  if (lru_tail_ != kNil) {
    slots_[lru_tail_].lru_next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
  LinkTier(slot);
  // Link at the function's MRU position.
  if (by_function_.size() <= function) {
    by_function_.resize(function + 1);
  }
  FnList& fn = by_function_[function];
  s.fn_prev = fn.tail;
  s.fn_next = kNil;
  if (fn.tail != kNil) {
    slots_[fn.tail].fn_next = slot;
  } else {
    fn.head = slot;
  }
  fn.tail = slot;
  ++fn.count;
  ++size_;
  if (size_ > peak_size_) {
    peak_size_ = size_;
  }
}

void KeepAlivePool::Retier(uint32_t slot, DensityTier tier, uint64_t footprint_bytes) {
  Slot& s = slots_[slot];
  UnlinkTier(slot);
  --tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] -= s.footprint_bytes;
  footprint_bytes_ -= s.footprint_bytes;
  s.tier = tier;
  s.footprint_bytes = footprint_bytes;
  LinkTier(slot);
  ++tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] += s.footprint_bytes;
  footprint_bytes_ += s.footprint_bytes;
}

std::unique_ptr<FunctionInstance> KeepAlivePool::TakeWarm(FunctionId function) {
  if (function >= by_function_.size() || by_function_[function].tail == kNil) {
    return nullptr;
  }
  return Detach(by_function_[function].tail);
}

bool KeepAlivePool::EvictLru() {
  if (lru_head_ == kNil) {
    return false;
  }
  evict_(Detach(lru_head_));
  return true;
}

bool KeepAlivePool::EvictHotLru() {
  const uint32_t head = tier_head_[static_cast<size_t>(DensityTier::kDramHot)];
  if (head == kNil) {
    return false;
  }
  evict_(Detach(head));
  return true;
}

void KeepAlivePool::LinkTier(uint32_t slot) {
  Slot& s = slots_[slot];
  const size_t t = static_cast<size_t>(s.tier);
  s.tier_prev = tier_tail_[t];
  s.tier_next = kNil;
  if (tier_tail_[t] != kNil) {
    slots_[tier_tail_[t]].tier_next = slot;
  } else {
    tier_head_[t] = slot;
  }
  tier_tail_[t] = slot;
}

void KeepAlivePool::UnlinkTier(uint32_t slot) {
  Slot& s = slots_[slot];
  const size_t t = static_cast<size_t>(s.tier);
  if (s.tier_prev != kNil) {
    slots_[s.tier_prev].tier_next = s.tier_next;
  } else {
    tier_head_[t] = s.tier_next;
  }
  if (s.tier_next != kNil) {
    slots_[s.tier_next].tier_prev = s.tier_prev;
  } else {
    tier_tail_[t] = s.tier_prev;
  }
  s.tier_prev = kNil;
  s.tier_next = kNil;
}

bool KeepAlivePool::ExpiresBefore(uint32_t a, uint32_t b) const {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  return x.expiry != y.expiry ? x.expiry < y.expiry : x.seq < y.seq;
}

void KeepAlivePool::HeapPush(uint32_t slot) {
  expiry_heap_.push_back(slot);
  SiftUp(static_cast<uint32_t>(expiry_heap_.size() - 1));
}

void KeepAlivePool::HeapErase(uint32_t pos) {
  slots_[expiry_heap_[pos]].heap_pos = kNil;
  const uint32_t last = expiry_heap_.back();
  expiry_heap_.pop_back();
  if (pos == expiry_heap_.size()) {
    return;
  }
  // The former last entry fills the hole; it may belong above or below it.
  expiry_heap_[pos] = last;
  if (pos > 0 && ExpiresBefore(last, expiry_heap_[(pos - 1) / 2])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void KeepAlivePool::SiftUp(uint32_t pos) {
  const uint32_t slot = expiry_heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!ExpiresBefore(slot, expiry_heap_[parent])) {
      break;
    }
    expiry_heap_[pos] = expiry_heap_[parent];
    slots_[expiry_heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  expiry_heap_[pos] = slot;
  slots_[slot].heap_pos = pos;
}

void KeepAlivePool::SiftDown(uint32_t pos) {
  const uint32_t slot = expiry_heap_[pos];
  const size_t n = expiry_heap_.size();
  for (size_t child = 2 * size_t{pos} + 1; child < n; child = 2 * size_t{pos} + 1) {
    if (child + 1 < n && ExpiresBefore(expiry_heap_[child + 1], expiry_heap_[child])) {
      ++child;
    }
    if (!ExpiresBefore(expiry_heap_[child], slot)) {
      break;
    }
    expiry_heap_[pos] = expiry_heap_[child];
    slots_[expiry_heap_[pos]].heap_pos = pos;
    pos = static_cast<uint32_t>(child);
  }
  expiry_heap_[pos] = slot;
  slots_[slot].heap_pos = pos;
}

size_t KeepAlivePool::ExpireStale(SimTime now) {
  if (expiry_heap_.empty() || slots_[expiry_heap_.front()].expiry > now) {
    return 0;
  }
  // Per-entry TTLs make expiry non-monotone in LRU order, so the heap pops
  // due entries in expiry order; evict them in park order instead, which is
  // LRU order — the order frame and swap-block frees must happen in.
  due_.clear();
  while (!expiry_heap_.empty() && slots_[expiry_heap_.front()].expiry <= now) {
    due_.push_back(expiry_heap_.front());
    HeapErase(0);
  }
  std::sort(due_.begin(), due_.end(),
            [this](uint32_t a, uint32_t b) { return slots_[a].seq < slots_[b].seq; });
  for (const uint32_t slot : due_) {
    evict_(Detach(slot));
  }
  return due_.size();
}

void KeepAlivePool::EvictAll() {
  while (EvictLru()) {
  }
}

void KeepAlivePool::Drop() {
  slots_.clear();
  free_slots_.clear();
  by_function_.clear();
  expiry_heap_.clear();
  lru_head_ = kNil;
  lru_tail_ = kNil;
  for (size_t i = 0; i < kDensityTierCount; ++i) {
    tier_head_[i] = kNil;
    tier_tail_[i] = kNil;
  }
  size_ = 0;
  for (size_t i = 0; i < kDensityTierCount; ++i) {
    tier_counts_[i] = 0;
    tier_bytes_[i] = 0;
  }
  footprint_bytes_ = 0;
}

}  // namespace trenv
