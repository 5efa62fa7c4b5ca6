#include "src/workload/traces.h"

#include <algorithm>
#include <cmath>

namespace trenv {

Schedule MakeIndustryWorkload(const std::vector<std::string>& functions,
                              const IndustryTraceOptions& options, Rng& rng) {
  Schedule schedule;
  const auto minutes = static_cast<uint64_t>(options.duration.seconds() / 60.0);
  for (const std::string& name : functions) {
    const FunctionId function = InternFunction(name);
    // Per-function popularity: lognormal with unit median scaled to mean_rpm.
    const double popularity = rng.NextLogNormal(0.0, options.popularity_sigma);
    const double rpm = options.mean_rpm * popularity;
    // On/off episodes: sample the active/idle state minute by minute.
    bool active = rng.NextBool(0.5);
    double state_left_min = rng.NextExponential(
        active ? options.active_minutes_mean : options.idle_minutes_mean);
    for (uint64_t minute = 0; minute < minutes; ++minute) {
      state_left_min -= 1.0;
      if (state_left_min <= 0) {
        active = !active;
        state_left_min = rng.NextExponential(
            active ? options.active_minutes_mean : options.idle_minutes_mean);
      }
      if (!active || rng.NextBool(options.idle_minute_fraction)) {
        continue;
      }
      // Poisson-ish count for this minute.
      const double lambda = std::max(0.1, rpm);
      auto count = static_cast<uint64_t>(std::max(0.0, rng.NextNormal(lambda, std::sqrt(lambda))));
      count = std::min<uint64_t>(count, 400);  // sanity cap
      const bool bursty_minute = rng.NextBool(options.burst_probability);
      for (uint64_t i = 0; i < count; ++i) {
        double offset_s;
        if (bursty_minute) {
          // Front-loaded: all invocations land in the first few seconds.
          offset_s = rng.NextUniform(0.0, 5.0);
        } else {
          offset_s = rng.NextUniform(0.0, 60.0);
        }
        schedule.push_back({SimTime::Zero() + SimDuration::FromSecondsF(
                                static_cast<double>(minute) * 60.0 + offset_s),
                            function});
      }
    }
  }
  SortSchedule(schedule);
  return schedule;
}

Schedule MakeAzureLikeWorkload(const std::vector<std::string>& functions, Rng& rng) {
  IndustryTraceOptions options;
  options.duration = SimDuration::Minutes(60);  // several on/off episodes
  options.mean_rpm = 14.0;
  options.popularity_sigma = 1.4;  // extreme skew
  options.burst_probability = 0.25;
  options.idle_minute_fraction = 0.35;
  options.active_minutes_mean = 5.0;
  options.idle_minutes_mean = 18.0;  // long gaps: frequent keep-alive misses
  return MakeIndustryWorkload(functions, options, rng);
}

Schedule MakeHuaweiLikeWorkload(const std::vector<std::string>& functions, Rng& rng) {
  IndustryTraceOptions options;
  options.duration = SimDuration::Minutes(60);
  options.mean_rpm = 22.0;
  options.popularity_sigma = 0.9;
  options.burst_probability = 0.45;  // strong sub-minute bursts
  options.idle_minute_fraction = 0.15;
  options.active_minutes_mean = 6.0;
  options.idle_minutes_mean = 12.0;
  return MakeIndustryWorkload(functions, options, rng);
}

}  // namespace trenv
