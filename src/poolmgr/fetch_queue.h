// Per-NIC remote-fetch queue: batching, coalescing, and incast-aware
// queueing for template-shard transfers into a worker node.
//
// A lease miss needs shards from several pool nodes at once. The worker's
// NIC is the shared resource: requests issued at the same instant to the
// same source coalesce into one transfer (amortizing the per-op round
// trip), while transfers from *distinct* sources land on one receive
// pipeline simultaneously — the classic incast pattern — and pay a
// super-linear queueing penalty on top of the fabric's own load-dependent
// latency (RdmaPool already models per-stream NIC cache pressure; the
// queue opens one stream per source so that model sees the fan-in).
//
// The queue itself is work-conserving in virtual time: a NIC busy draining
// an earlier batch delays the next one by exactly the residual busy time,
// so back-to-back attaches on one worker serialize while attaches on
// different workers proceed in parallel. Everything is deterministic given
// the fabric backend's state.
#ifndef TRENV_POOLMGR_FETCH_QUEUE_H_
#define TRENV_POOLMGR_FETCH_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/common/cost_model.h"
#include "src/common/time.h"
#include "src/mempool/backend.h"

namespace trenv {

// One shard's worth of pages wanted from one pool node.
struct FetchRequest {
  uint32_t source = 0;  // pool node holding the shard
  uint64_t npages = 0;
  // 0 (default): a demand-style fetch, charged through the fabric's plain
  // FetchLatency model. >= 1: a planned scatter-gather descriptor covering
  // `nruns` page runs (working-set prefetch); groups containing any such
  // request are charged through BulkFetchLatency, which amortizes the base
  // round trip across the batch.
  uint64_t nruns = 0;
};

struct FetchOutcome {
  SimDuration queue_delay;  // residual drain time of earlier batches
  SimDuration transfer;     // coalesced transfer incl. incast penalty
  uint64_t pages = 0;
  uint64_t ops = 0;        // transfers issued after coalescing
  uint64_t coalesced = 0;  // requests merged into an existing transfer
  uint64_t runs = 0;       // scatter-gather runs across bulk descriptors
  uint32_t sources = 0;    // distinct pool nodes in the batch (incast width)

  SimDuration Total() const { return queue_delay + transfer; }
};

class NicFetchQueue {
 public:
  // `incast_penalty` is the extra fractional latency charged per concurrent
  // source beyond the first (switch buffer pressure at the fan-in point).
  explicit NicFetchQueue(double incast_penalty = cost::kNicIncastPenalty)
      : incast_penalty_(incast_penalty) {}

  // Issues one batch at `now` against `fabric` (the inter-node RDMA model;
  // its FetchLatency supplies load-dependent base cost, jitter, and any
  // injected flaps/corruption with retries). Mutates the NIC busy window.
  FetchOutcome Issue(SimTime now, std::vector<FetchRequest> requests,
                     MemoryBackend* fabric);

  SimTime busy_until() const { return busy_until_; }
  uint64_t total_pages() const { return total_pages_; }
  uint64_t total_ops() const { return total_ops_; }
  uint64_t total_coalesced() const { return total_coalesced_; }

 private:
  double incast_penalty_;
  SimTime busy_until_;
  uint64_t total_pages_ = 0;
  uint64_t total_ops_ = 0;
  uint64_t total_coalesced_ = 0;
};

}  // namespace trenv

#endif  // TRENV_POOLMGR_FETCH_QUEUE_H_
