// Fetch-path retry: capped exponential backoff with a total deadline, all in
// virtual time. Wrapped around remote fetches so an RDMA flap or NAS stall
// costs a bounded, deterministic amount of latency instead of either failing
// the invocation or hanging it forever. The constants live in
// src/common/cost_model.h.
#ifndef TRENV_FAULT_RETRY_POLICY_H_
#define TRENV_FAULT_RETRY_POLICY_H_

#include <algorithm>
#include <cstdint>

#include "src/common/cost_model.h"
#include "src/common/time.h"

namespace trenv {

// Backoff slept before retry `attempt` (1-based count of retries).
constexpr SimDuration BackoffFor(uint32_t attempt) {
  if (attempt == 0) {
    return SimDuration::Zero();
  }
  SimDuration backoff = cost::kRetryInitialBackoff;
  for (uint32_t i = 1; i < attempt && backoff < cost::kRetryMaxBackoff; ++i) {
    backoff = SimDuration(backoff.nanos() * cost::kRetryBackoffMultiplier);
  }
  return std::min(backoff, cost::kRetryMaxBackoff);
}

// Worst-case retry overhead a single fetch can accumulate on top of its
// successful transfer when its attempts time out: the tests use this to bound
// chaos-run latency.
constexpr SimDuration OverheadBound() {
  SimDuration total;
  for (uint32_t attempt = 1; attempt < cost::kRetryMaxAttempts; ++attempt) {
    total = total + cost::kRetryAttemptTimeout + BackoffFor(attempt);
  }
  return total;
}

// Timeouts alone never reach the deadline, so it cannot cut the bound above
// short. Only corrupted transfers, which waste a whole transfer each, can.
static_assert(OverheadBound() < cost::kRetryDeadline);

}  // namespace trenv

#endif  // TRENV_FAULT_RETRY_POLICY_H_
