// FaultSchedule: a declarative description of what breaks, when, and how
// badly. The recovery half of the paper's claim — execution environments
// survive across functions AND nodes because templates live in a shared
// CXL/RDMA pool — is only testable if the fabric can fail, so each window
// names a failure domain, a virtual-time interval, a probability, and a
// target (node / MHD port).
//
// A schedule is pure data: all randomness (which fetch flaps, when inside a
// window a node dies) comes from the FaultInjector's seeded Rng, so the same
// schedule + seed replays the identical fault sequence on every run.
#ifndef TRENV_FAULT_FAULT_SCHEDULE_H_
#define TRENV_FAULT_FAULT_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"

namespace trenv {

// Matches every node / every MHD port.
inline constexpr uint32_t kAnyTarget = 0xffffffffu;

enum class FaultDomain : uint8_t {
  // A node dies at a drawn instant inside the window; its in-flight work is
  // lost locally and must fail over to survivors via the shared pool.
  kNodeCrash = 0,
  // An RDMA fetch attempt fails outright (NIC flap / switch reroute); the
  // retry policy re-issues it after a backoff.
  kRdmaFlap,
  // Load-dependent RDMA latency spike: every fetch is slowed by
  // 1 + severity * active_streams (NIC cache pressure under bursts).
  kRdmaDegrade,
  // One MHD port (or all, with kAnyTarget) serves loads and CoW copies
  // `severity` times slower — a degraded CXL link.
  kCxlPortDegrade,
  // A NAS block read stalls past its timeout and is retried.
  kNasStall,
  // The fetched payload fails the receiver's checksum and is discarded and
  // refetched (transient wire corruption). The injector's `corrupt` flag is
  // the whole model: no content is hashed.
  kPageCorruption,
  // Shared-pool pressure: targeted nodes scale their soft memory cap by
  // `severity`, forcing keep-alive/template eviction until the window ends.
  kPoolPressure,
  // A *pool* node (shard holder in the memory-pool control plane) dies at a
  // drawn instant inside the window. With replication >= 2 a surviving
  // replica is promoted and no lease is revoked; with replication 1 the lost
  // shards are reseeded from the dedup store and affected leases revoked.
  kPoolNodeCrash,
};

struct FaultWindow {
  FaultDomain domain = FaultDomain::kRdmaFlap;
  SimTime start;
  SimTime end = SimTime::Max();  // exclusive
  // Per-draw probability: per fetch attempt for link domains, per window for
  // kNodeCrash. Ignored by the deterministic domains (degrade, pressure).
  double probability = 1.0;
  // Node id (crash, pressure) or MHD port (CXL degrade); kAnyTarget = all
  // nodes for deterministic domains, a uniformly drawn node for crashes.
  uint32_t target = kAnyTarget;
  // Latency multiplier (degrade domains) or soft-mem-cap scale (pressure).
  double severity = 1.0;
  // kNodeCrash: the node restarts this long after dying; Zero = stays down.
  SimDuration restart_after;

  bool Contains(SimTime t) const { return start <= t && t < end; }
  bool Targets(uint32_t id) const { return target == kAnyTarget || target == id; }
};

struct FaultSchedule {
  uint64_t seed = 0xFA171;
  std::vector<FaultWindow> windows;

  bool empty() const { return windows.empty(); }
  FaultSchedule& Add(const FaultWindow& window) {
    windows.push_back(window);
    return *this;
  }
};

// Window builders for the common cases (tests and benches read better with
// named arguments than six-field aggregates).
FaultWindow NodeCrashWindow(SimTime start, SimTime end, double probability, uint32_t node,
                            SimDuration restart_after);
FaultWindow PoolCrashWindow(SimTime start, SimTime end, double probability, uint32_t pool_node,
                            SimDuration restart_after);
FaultWindow LinkFaultWindow(FaultDomain domain, SimTime start, SimTime end, double probability,
                            double severity = 1.0);
FaultWindow PoolPressureWindow(SimTime start, SimTime end, double cap_scale,
                               uint32_t node = kAnyTarget);

}  // namespace trenv

#endif  // TRENV_FAULT_FAULT_SCHEDULE_H_
