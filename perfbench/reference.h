// A fixed reference kernel that calibrates the benchmark's host clock.
//
// On a shared machine the same repetition runs up to 1.5x slower while other
// tenants load the CPU's caches and memory, for seconds to minutes at a time,
// and CPU time does not leave that out. The kernel below does a fixed amount
// of simulator-like work (an event heap, a hash map keyed beyond the caches,
// small allocations, random reads and writes over a 16 MiB table) and slows
// down in the same phases. It is the benchmark's own code, so a change to
// the simulator does not change it; timing it between repetitions gives the
// machine's speed at that moment.
#ifndef TRENV_PERFBENCH_REFERENCE_H_
#define TRENV_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/span_log.h"

namespace perfbench {

// CPU seconds the kernel takes on the machine host metrics are scaled to. A
// round figure: on a shared 4-vCPU x86 VM (gcc 12.2, Release) the kernel's
// median per run ranged 0.13-0.22 s.
inline constexpr double kReferenceNominalS = 0.2;

// Runs the kernel once and returns the CPU seconds it took. Everything it
// allocates is freed before it returns.
inline double RunReferenceKernel() {
  constexpr uint32_t kLiveEvents = 100000;
  constexpr uint32_t kSteps = 200000;
  constexpr uint32_t kKeys = 1000000;
  constexpr uint64_t kTableWords = uint64_t{2} << 20;
  const Stopwatch clock;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<uint64_t> table(kTableWords, 1);
  std::priority_queue<std::pair<uint64_t, uint32_t>, std::vector<std::pair<uint64_t, uint32_t>>,
                      std::greater<>>
      events;
  std::unordered_map<uint32_t, uint64_t> totals;
  std::vector<std::unique_ptr<std::vector<uint32_t>>> objects(4096);
  for (uint32_t i = 0; i < kLiveEvents; ++i) {
    events.emplace(next() % 1000000, i);
  }
  uint64_t acc = 0;
  for (uint32_t i = 0; i < kSteps; ++i) {
    const auto [time, id] = events.top();
    events.pop();
    totals[static_cast<uint32_t>(next() % kKeys)] += time;
    if ((i & 7) == 0) {
      objects[next() % objects.size()] = std::make_unique<std::vector<uint32_t>>(8 + next() % 64, id);
    }
    for (int k = 0; k < 4; ++k) {
      acc += ++table[next() & (kTableWords - 1)];
    }
    events.emplace(time + 1 + next() % 100000, id);
  }
  // A volatile store keeps the work from being optimised away.
  volatile uint64_t observed = acc + totals.size();
  (void)observed;
  return clock.CpuSeconds();
}

}  // namespace perfbench

#endif  // TRENV_PERFBENCH_REFERENCE_H_
