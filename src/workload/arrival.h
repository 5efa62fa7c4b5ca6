// Invocation schedules and the synthetic arrival-pattern generators for the
// paper's W1 (bursty) and W2 (diurnal) workloads (section 9.1).
#ifndef TRENV_WORKLOAD_ARRIVAL_H_
#define TRENV_WORKLOAD_ARRIVAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/interner.h"
#include "src/common/rng.h"
#include "src/common/time.h"

namespace trenv {

// One arrival. Generators fill in an interned id; a hand-written schedule
// names its function, and that constructor is where the name is interned.
struct Invocation {
  Invocation() = default;
  Invocation(SimTime at, FunctionId fn) : arrival(at), function(fn) {}
  Invocation(SimTime at, std::string_view name) : Invocation(at, InternFunction(name)) {}

  SimTime arrival;
  FunctionId function = kInvalidFunctionId;
};

using Schedule = std::vector<Invocation>;

// Sorts by arrival time (generators emit per-function streams).
void SortSchedule(Schedule& schedule);

// W1: bursty traffic. Bursts arrive with inter-burst gaps *longer than the
// keep-alive threshold*, so traditional caching always misses. Each function
// drives its burst timeline from an independent child RNG forked from the
// caller's Rng in function order (the parent advances one draw per function),
// so the same trace can be generated lazily per function — see
// BurstyArrivalStream in arrival_stream.h.
struct BurstyOptions {
  SimDuration duration = SimDuration::Minutes(30);
  SimDuration inter_burst = SimDuration::Minutes(11);  // > 10 min keep-alive
  uint32_t burst_size = 40;           // invocations per function per burst
  SimDuration burst_spread = SimDuration::Seconds(4);  // arrivals inside a burst
};
Schedule MakeBurstyWorkload(const std::vector<std::string>& functions,
                            const BurstyOptions& options, Rng& rng);

// W2: diurnal traffic. The aggregate rate follows a day-night sinusoid
// (compressed into `duration`) and cycles across functions under tight
// memory, so instances are constantly evicted and recreated.
struct DiurnalOptions {
  SimDuration duration = SimDuration::Minutes(30);
  double peak_rate_per_sec = 4.0;   // aggregate arrival rate at peak
  double trough_rate_per_sec = 0.3;
  uint32_t cycles = 3;              // day-night cycles within duration
  double function_skew = 0.8;       // Zipf skew of function popularity
  // Arrivals clump (fan-out requests, retries): with this probability an
  // arrival drags `clump_size` siblings within ~1 s. Clumps create the
  // concurrency spikes that make W2's tight memory cap bite.
  double clump_probability = 0.25;
  uint32_t clump_size = 10;
};
Schedule MakeDiurnalWorkload(const std::vector<std::string>& functions,
                             const DiurnalOptions& options, Rng& rng);

// Plain Poisson arrivals with Zipf-distributed function choice; building
// block for tests and custom experiments.
Schedule MakePoissonWorkload(const std::vector<std::string>& functions, double rate_per_sec,
                             SimDuration duration, double function_skew, Rng& rng);

}  // namespace trenv

#endif  // TRENV_WORKLOAD_ARRIVAL_H_
