// Consistent-hash ring for shard placement across pool nodes.
//
// Template chunks are content-addressed (a hash of the chunk's content is the
// key), so placement must be a pure function of (key, live membership): any
// node that knows the membership can compute where a shard lives without a
// directory lookup, and a membership change remaps only the shards whose
// owners actually changed — the property the rebalancer relies on to move
// O(1/N) of the data instead of reshuffling everything.
//
// Each pool node projects a fixed number of virtual points onto the ring so
// shard load stays balanced even at small node counts. Replicas are the first
// R *distinct* nodes clockwise from the key's hash.
#ifndef TRENV_POOLMGR_HASH_RING_H_
#define TRENV_POOLMGR_HASH_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trenv {

class HashRing {
 public:
  void AddNode(uint32_t node);
  void RemoveNode(uint32_t node);
  bool Contains(uint32_t node) const;
  size_t node_count() const { return nodes_.size(); }
  size_t vnode_count() const { return ring_.size(); }
  // Bumped by every AddNode/RemoveNode that changes the membership, so an
  // owner set computed at one version holds for as long as it is current.
  // A ring that has held a node is never at version 0.
  uint64_t version() const { return version_; }

  // The first min(replicas, node_count) distinct nodes clockwise from
  // hash(key), primary first. Deterministic for a fixed membership.
  void OwnersFor(uint64_t key, uint32_t replicas, std::vector<uint32_t>* out) const;
  std::vector<uint32_t> OwnersFor(uint64_t key, uint32_t replicas) const {
    std::vector<uint32_t> out;
    OwnersFor(key, replicas, &out);
    return out;
  }

 private:
  struct VNode {
    uint64_t hash;
    uint32_t node;
    bool operator<(const VNode& o) const {
      return hash < o.hash || (hash == o.hash && node < o.node);
    }
  };

  std::vector<VNode> ring_;     // sorted by (hash, node)
  std::vector<uint32_t> nodes_;  // sorted live membership
  uint64_t version_ = 0;
};

}  // namespace trenv

#endif  // TRENV_POOLMGR_HASH_RING_H_
