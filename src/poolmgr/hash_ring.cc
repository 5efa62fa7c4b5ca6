#include "src/poolmgr/hash_ring.h"

#include <algorithm>

#include "src/common/rng.h"

namespace trenv {
namespace {

constexpr uint32_t kVnodesPerNode = 48;

// Virtual-point hash: mixes the node id and replica index so a node's points
// scatter uniformly. Purely arithmetic — placement never draws randomness, so
// every participant computes the same ring.
uint64_t VNodeHash(uint32_t node, uint32_t replica) {
  return MixU64((static_cast<uint64_t>(node) << 32) | (replica + 1));
}

}  // namespace

void HashRing::AddNode(uint32_t node) {
  if (Contains(node)) {
    return;
  }
  nodes_.insert(std::lower_bound(nodes_.begin(), nodes_.end(), node), node);
  ++version_;
  ring_.reserve(ring_.size() + kVnodesPerNode);
  for (uint32_t r = 0; r < kVnodesPerNode; ++r) {
    const VNode vnode{VNodeHash(node, r), node};
    ring_.insert(std::lower_bound(ring_.begin(), ring_.end(), vnode), vnode);
  }
}

void HashRing::RemoveNode(uint32_t node) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (it == nodes_.end() || *it != node) {
    return;
  }
  nodes_.erase(it);
  ++version_;
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [node](const VNode& v) { return v.node == node; }),
              ring_.end());
}

bool HashRing::Contains(uint32_t node) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

void HashRing::OwnersFor(uint64_t key, uint32_t replicas, std::vector<uint32_t>* out) const {
  out->clear();
  if (ring_.empty() || replicas == 0) {
    return;
  }
  const uint32_t want = std::min<uint32_t>(replicas, static_cast<uint32_t>(nodes_.size()));
  const uint64_t point = MixU64(key);
  size_t i = static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), VNode{point, 0}) - ring_.begin());
  for (size_t walked = 0; out->size() < want && walked < ring_.size(); ++walked) {
    if (i == ring_.size()) {
      i = 0;  // wrap past 2^64
    }
    const uint32_t node = ring_[i].node;
    if (std::find(out->begin(), out->end(), node) == out->end()) {
      out->push_back(node);
    }
    ++i;
  }
}

}  // namespace trenv
