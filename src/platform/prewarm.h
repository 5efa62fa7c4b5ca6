// Histogram-based keep-alive / pre-warming policy, after Shahrad et al.
// (ATC'20) — the class of "complex strategies" the paper's related-work
// section says TrEnv makes unnecessary (section 10). Implemented as the
// strongest-reasonable caching baseline for the ablation bench.
//
// Per function, the policy learns the inter-arrival-time (IT) distribution:
//   - keep-alive window  = a high IT percentile (cover most reuse), capped;
//   - pre-warm delay     = a low IT percentile (have an instance ready just
//                          before the next predicted arrival), only used
//                          when the distribution is concentrated enough for
//                          prediction to make sense.
#ifndef TRENV_PLATFORM_PREWARM_H_
#define TRENV_PLATFORM_PREWARM_H_

#include <deque>
#include <optional>
#include <unordered_map>

#include "src/common/histogram.h"
#include "src/common/interner.h"
#include "src/common/time.h"

namespace trenv {

class PrewarmPolicy {
 public:
  // Observations kept per function (sliding window).
  static constexpr size_t kWindow = 64;

  // Records an invocation arrival for `function`.
  void RecordArrival(FunctionId function, SimTime now);

  // How long to keep this function's instances warm after use.
  SimDuration KeepAliveFor(FunctionId function) const;

  // If prediction is worthwhile, the delay (from the last arrival) after
  // which an instance should be pre-warmed; nullopt when unpredictable.
  std::optional<SimDuration> PrewarmDelay(FunctionId function) const;

  size_t ObservationCount(FunctionId function) const;

 private:
  struct FunctionState {
    SimTime last_arrival;
    bool has_arrival = false;
    std::deque<double> inter_arrival_s;
  };

  // Percentile over the sliding window (returns 0 when empty).
  static double PercentileOf(const std::deque<double>& samples, double p);

  // Never iterated, so hash order cannot reach any output.
  std::unordered_map<FunctionId, FunctionState> functions_;
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_PREWARM_H_
