// Cgroup modelling (paper sections 4.1 and 5.2.2).
//
// Creation costs 16-32 ms; *migration* of an existing process into a cgroup
// costs 10-50 ms because of two global rw-semaphores and an RCU grace period
// (Fig 14). TrEnv avoids migration entirely via CLONE_INTO_CGROUP, which
// assigns the cgroup at clone() time for 100-300 us.
#ifndef TRENV_SANDBOX_CGROUP_H_
#define TRENV_SANDBOX_CGROUP_H_

#include <cstdint>
#include <set>

#include "src/common/cost_model.h"
#include "src/common/rng.h"
#include "src/common/time.h"

namespace trenv {

struct CgroupLimits {
  double cpu_cores = 1.0;
  uint64_t memory_bytes = 2ULL * 1024 * 1024 * 1024;
  uint64_t io_bps = 0;  // 0 = unlimited

  bool operator==(const CgroupLimits&) const = default;
};

class Cgroup {
 public:
  Cgroup(uint64_t id, CgroupLimits limits) : id_(id), limits_(limits) {}

  uint64_t id() const { return id_; }
  const CgroupLimits& limits() const { return limits_; }

  // Rewrites the cgroupfs limit files; cheap (TrEnv's repurposing step B2).
  SimDuration Reconfigure(CgroupLimits limits);

  void AddProcess(uint64_t pid) { procs_.insert(pid); }
  size_t process_count() const { return procs_.size(); }
  void ClearProcesses() { procs_.clear(); }

 private:
  uint64_t id_;
  CgroupLimits limits_;
  std::set<uint64_t> procs_;
};

// Models cgroup lifecycle costs, including the global-lock contention on the
// migration path.
class CgroupManager {
 public:
  explicit CgroupManager(uint64_t seed = 0xc6) : rng_(seed) {}

  Cgroup Create(CgroupLimits limits);
  // Cost of creating the cgroup directory + controllers.
  SimDuration CreateCost();
  // Legacy path: spawn, then migrate the process into the cgroup. Slows down
  // under concurrent migrations (RCU grace periods serialize).
  SimDuration MigrateCost(uint32_t concurrent_migrations);
  // TrEnv path: CLONE_INTO_CGROUP at spawn time; no global synchronization.
  SimDuration CloneIntoCost();

 private:
  Rng rng_;
  uint64_t next_id_ = 1;
};

}  // namespace trenv

#endif  // TRENV_SANDBOX_CGROUP_H_
