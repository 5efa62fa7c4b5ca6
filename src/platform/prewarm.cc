#include "src/platform/prewarm.h"

#include <algorithm>
#include <vector>

namespace trenv {
namespace {

// Keep-alive = this IT percentile, clamped to [min, max].
constexpr double kKeepPercentile = 95;
constexpr SimDuration kMinKeepAlive = SimDuration::Seconds(30);
constexpr SimDuration kMaxKeepAlive = SimDuration::Minutes(10);
// Pre-warm fires this IT percentile after the last arrival...
constexpr double kPrewarmPercentile = 25;
// ...but only when the IT distribution is predictable: p75/p25 below this
// ratio (concentrated) and at least kMinSamples observations.
constexpr double kMaxDispersion = 4.0;
constexpr size_t kMinSamples = 8;

}  // namespace

void PrewarmPolicy::RecordArrival(FunctionId function, SimTime now) {
  FunctionState& state = functions_[function];
  if (state.has_arrival) {
    const double it_s = (now - state.last_arrival).seconds();
    if (it_s >= 0) {
      state.inter_arrival_s.push_back(it_s);
      while (state.inter_arrival_s.size() > kWindow) {
        state.inter_arrival_s.pop_front();
      }
    }
  }
  state.last_arrival = now;
  state.has_arrival = true;
}

double PrewarmPolicy::PercentileOf(const std::deque<double>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

SimDuration PrewarmPolicy::KeepAliveFor(FunctionId function) const {
  auto it = functions_.find(function);
  if (it == functions_.end() || it->second.inter_arrival_s.size() < kMinSamples) {
    return kMaxKeepAlive;  // no data: be conservative (fixed TTL)
  }
  const double keep_s = PercentileOf(it->second.inter_arrival_s, kKeepPercentile);
  return std::clamp(SimDuration::FromSecondsF(keep_s * 1.1), kMinKeepAlive, kMaxKeepAlive);
}

std::optional<SimDuration> PrewarmPolicy::PrewarmDelay(FunctionId function) const {
  auto it = functions_.find(function);
  if (it == functions_.end() || it->second.inter_arrival_s.size() < kMinSamples) {
    return std::nullopt;
  }
  const auto& samples = it->second.inter_arrival_s;
  const double p25 = PercentileOf(samples, 25);
  const double p75 = PercentileOf(samples, 75);
  if (p25 <= 0 || p75 / p25 > kMaxDispersion) {
    return std::nullopt;  // too dispersed to predict
  }
  const double delay_s = PercentileOf(samples, kPrewarmPercentile);
  // A gap shorter than the keep-alive window needs no pre-warming: the
  // instance is still cached.
  if (SimDuration::FromSecondsF(delay_s) <= KeepAliveFor(function)) {
    return std::nullopt;
  }
  return SimDuration::FromSecondsF(delay_s * 0.9);
}

size_t PrewarmPolicy::ObservationCount(FunctionId function) const {
  auto it = functions_.find(function);
  return it == functions_.end() ? 0 : it->second.inter_arrival_s.size();
}

}  // namespace trenv
