// Lease: the one TTL-lease scheme of the rack planes (poolmgr's template
// leases, shstate's reader leases). A lease is a deadline that every grant
// moves forward, with at most one expiry check pending on the rack clock: a
// check that runs before the deadline re-arms at it, one that finds the lease
// dropped does nothing, and one at the deadline drops the lease and runs its
// owner's expiry action. A renewal schedules nothing.
#ifndef TRENV_SIM_LEASE_H_
#define TRENV_SIM_LEASE_H_

#include <algorithm>
#include <cassert>

#include "src/common/time.h"
#include "src/sim/event_scheduler.h"

namespace trenv {

struct Lease {
  SimTime expires;
  bool held = false;
  bool check_pending = false;
  // Release or revocation. A pending check outlives the drop and, should a
  // later grant re-take the lease first, re-arms at that grant's deadline.
  void Drop() { held = false; }
};

// Holds `lease` until at least `deadline`. The check calls `find()` to reach
// the lease again (the owner's table may have grown since the grant) and
// `expire()` once the lease lapses.
template <typename Find, typename Expire>
void GrantLease(EventScheduler& clock, Lease& lease, SimTime deadline, Find find,
                Expire expire) {
  lease.expires = lease.held ? std::max(lease.expires, deadline) : deadline;
  lease.held = true;
  if (lease.check_pending) {
    return;
  }
  lease.check_pending = true;
  clock.ScheduleAt(std::max(deadline, clock.now()), [&clock, find, expire] {
    Lease& current = find();
    assert(current.check_pending);
    current.check_pending = false;
    if (!current.held) {
      return;
    }
    if (clock.now() < current.expires) {
      GrantLease(clock, current, current.expires, find, expire);  // renewed: re-arm
      return;
    }
    current.held = false;
    expire();
  });
}

}  // namespace trenv

#endif  // TRENV_SIM_LEASE_H_
