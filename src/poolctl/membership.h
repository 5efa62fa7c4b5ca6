// GossipMembership: a deterministic gossip-style failure detector for the
// memory-pool fleet.
//
// The poolmgr's legacy wiring learns about pool-node deaths instantly and
// perfectly — the fault plan calls OnPoolNodeCrash the moment the node dies.
// Production control planes have neither luxury: they observe heartbeats,
// accrue suspicion, and sometimes declare a live node dead because the
// *network* dropped its beats (an RDMA flap), not the node. This module is
// that detector, collapsed onto the rack clock it is handed:
//
//   * One periodic tick delivers (or drops) a heartbeat per up node, in node
//     order, then re-evaluates suspicion — a phi-accrual detector simplified
//     to missed-interval counts (phi = elapsed / interval).
//   * Heartbeat loss is driven by the fault schedule's kRdmaFlap windows
//     through a caller-supplied probability function, drawn from the
//     detector's private seeded Rng — so false suspicion happens exactly
//     when the fabric is flapping, and identically on every run.
//   * The state machine is kAlive -> kSuspect -> kDead -> kJoining ->
//     kAlive. A suspect that beats again recovers (counted as a false
//     suspicion when the node never actually went down); a dead node must
//     deliver a streak of consecutive beats to rejoin, so one lucky beat
//     through a flap storm doesn't flap the ring too.
//
// The detector only observes and declares; ring surgery happens in the
// listener (PoolControlPlane -> PoolManager::DeclareDead/DeclareJoined).
#ifndef TRENV_POOLCTL_MEMBERSHIP_H_
#define TRENV_POOLCTL_MEMBERSHIP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/obs/registry.h"
#include "src/sim/event_scheduler.h"

namespace trenv {

class GossipMembership {
 public:
  enum class State : uint8_t { kAlive, kSuspect, kDead, kJoining };

  struct Transition {
    uint32_t node = 0;
    State from = State::kAlive;
    State to = State::kAlive;
  };
  using Listener = std::function<void(const Transition&)>;

  // `clock` is the rack clock (not owned); `stats` holds the detector's
  // counters, which the accessors below read. Nothing is scheduled until
  // Start().
  GossipMembership(uint32_t fleet, EventScheduler* clock, obs::Registry& stats);
  GossipMembership(const GossipMembership&) = delete;
  GossipMembership& operator=(const GossipMembership&) = delete;

  // Fires on every view change (suspicion, death, rejoin start, rejoin).
  void SetListener(Listener listener) { listener_ = std::move(listener); }
  // Probability that an up node's heartbeat this tick is lost in the
  // fabric; evaluated as loss(now, node). Null = lossless. Drawn from the
  // private Rng only when positive, so fault-free runs draw nothing.
  void SetHeartbeatLoss(std::function<double(SimTime, uint32_t)> loss) {
    loss_ = std::move(loss);
  }

  // Schedules the first tick one interval after `now`; every node starts
  // alive with its last beat stamped at `now`.
  void Start(SimTime now);
  // Cancels the pending tick so RunUntilIdle can drain (quiesce).
  void Stop();

  // Physical liveness from the fault plan. The detector never reads these
  // directly for state — it only stops/resumes the node's heartbeats and
  // uses them to tell false suspicion from true.
  void NodeDown(uint32_t node);
  void NodeUp(uint32_t node);

  State state(uint32_t node) const { return nodes_[node].state; }
  // In the view = counted as a member (alive or merely suspected).
  bool InView(uint32_t node) const {
    return nodes_[node].state == State::kAlive || nodes_[node].state == State::kSuspect;
  }
  uint32_t fleet() const { return static_cast<uint32_t>(nodes_.size()); }
  // Nodes InView() counts, kept as a counter: dispatch reads it per
  // candidate node.
  uint32_t alive_in_view() const { return in_view_; }
  // Bumped on every death and every completed rejoin — the rebalancer's
  // cheap "membership changed" signal.
  uint64_t epoch() const { return epoch_; }

  uint64_t heartbeats_sent() const { return heartbeats_sent_->count(); }
  uint64_t heartbeats_dropped() const { return heartbeats_dropped_->count(); }
  uint64_t suspicions() const { return suspicions_->count(); }
  uint64_t false_suspicions() const { return false_suspicions_->count(); }
  uint64_t deaths() const { return deaths_->count(); }
  uint64_t rejoins() const { return rejoins_->count(); }
  // Down -> declared-dead lag per true death (the detector's latency).
  const Histogram& detection_ms() const { return detection_ms_; }

 private:
  struct NodeState {
    State state = State::kAlive;
    bool up = true;
    SimTime last_beat;
    SimTime down_since;
    // Down-transition count at suspicion time: if unchanged when the node
    // recovers, the node never died and the suspicion was the network's
    // fault — a false suspicion.
    uint64_t downs = 0;
    uint64_t downs_at_suspicion = 0;
    bool was_up_at_suspicion = false;
    uint32_t join_streak = 0;
  };

  void Tick();
  void Deliver(uint32_t node, SimTime now);
  void Evaluate(uint32_t node, SimTime now);
  // Bumps the membership epoch (a death or a completed rejoin).
  void BumpEpoch();
  void Announce(uint32_t node, State from, State to);

  EventScheduler* clock_;
  Rng rng_;
  std::vector<NodeState> nodes_;
  Listener listener_;
  std::function<double(SimTime, uint32_t)> loss_;
  EventId tick_event_ = kInvalidEventId;
  bool running_ = false;
  uint64_t epoch_ = 0;
  // Every node starts alive; only suspect -> dead leaves the view and only
  // joining -> alive re-enters it, the two transitions that bump the epoch.
  uint32_t in_view_;
  Histogram detection_ms_;

  // Registry instruments: the only home of each count.
  obs::Counter* heartbeats_sent_;
  obs::Counter* heartbeats_dropped_;
  obs::Counter* suspicions_;
  obs::Counter* false_suspicions_;
  obs::Counter* deaths_;
  obs::Counter* rejoins_;
  obs::Gauge* epoch_gauge_;
};

}  // namespace trenv

#endif  // TRENV_POOLCTL_MEMBERSHIP_H_
