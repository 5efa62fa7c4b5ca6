#include "src/poolctl/membership.h"

namespace trenv {
namespace {

constexpr SimDuration kHeartbeatInterval = SimDuration::Millis(500);
// Silent intervals after which a node is suspected / declared dead.
constexpr double kPhiSuspect = 3.0;
constexpr double kPhiDead = 8.0;
// Consecutive delivered beats a dead node needs to rejoin the view.
constexpr uint32_t kJoinBeats = 2;
constexpr uint64_t kHeartbeatLossSeed = 0x60551b;

}  // namespace

GossipMembership::GossipMembership(uint32_t fleet, EventScheduler* clock, obs::Registry& stats)
    : clock_(clock),
      rng_(kHeartbeatLossSeed),
      in_view_(fleet),
      heartbeats_sent_(stats.GetCounter("poolctl.heartbeats")),
      heartbeats_dropped_(stats.GetCounter("poolctl.heartbeats_dropped")),
      suspicions_(stats.GetCounter("poolctl.suspicions")),
      false_suspicions_(stats.GetCounter("poolctl.false_suspicions")),
      deaths_(stats.GetCounter("poolctl.deaths")),
      rejoins_(stats.GetCounter("poolctl.rejoins")),
      epoch_gauge_(stats.GetGauge("poolctl.membership_epoch")) {
  nodes_.resize(fleet);
}

void GossipMembership::Start(SimTime now) {
  if (running_) {
    return;
  }
  running_ = true;
  for (NodeState& node : nodes_) {
    node.last_beat = now;
  }
  tick_event_ = clock_->ScheduleAt(now + kHeartbeatInterval, [this] { Tick(); });
}

void GossipMembership::Stop() {
  running_ = false;
  if (tick_event_ != kInvalidEventId) {
    (void)clock_->Cancel(tick_event_);
    tick_event_ = kInvalidEventId;
  }
}

void GossipMembership::NodeDown(uint32_t node) {
  if (node >= nodes_.size() || !nodes_[node].up) {
    return;
  }
  nodes_[node].up = false;
  nodes_[node].down_since = clock_->now();
  ++nodes_[node].downs;
}

void GossipMembership::NodeUp(uint32_t node) {
  if (node >= nodes_.size() || nodes_[node].up) {
    return;
  }
  // Heartbeats resume on the next tick; the state machine recovers (or
  // rejoins, if the node was declared dead meanwhile) from the beats alone.
  nodes_[node].up = true;
}

void GossipMembership::Tick() {
  const SimTime now = clock_->now();
  // Phase 1: deliver this interval's heartbeats, in node order. Loss is
  // evaluated per (tick, node) and drawn only when positive — a fault-free
  // schedule never touches the Rng, keeping disabled-fault runs identical.
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].up) {
      continue;  // a down node sends nothing; silence accrues suspicion
    }
    heartbeats_sent_->Increment();
    const double loss = loss_ ? loss_(now, n) : 0.0;
    if (loss > 0.0 && rng_.NextBool(loss)) {
      heartbeats_dropped_->Increment();
      continue;  // the fabric ate it: indistinguishable from a dead node
    }
    Deliver(n, now);
  }
  // Phase 2: accrue suspicion over the silence since each node's last beat.
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    Evaluate(n, now);
  }
  if (running_) {
    tick_event_ = clock_->ScheduleAt(now + kHeartbeatInterval, [this] { Tick(); });
  }
}

void GossipMembership::Deliver(uint32_t node, SimTime now) {
  NodeState& state = nodes_[node];
  state.last_beat = now;
  switch (state.state) {
    case State::kAlive:
      break;
    case State::kSuspect: {
      // Recovered before declaration. If the node never actually went down
      // since we suspected it, the network dropped its beats: a false
      // suspicion — the failure-detector cost of RDMA flaps.
      if (state.was_up_at_suspicion && state.downs == state.downs_at_suspicion) {
        false_suspicions_->Increment();
      }
      Announce(node, State::kSuspect, State::kAlive);
      state.state = State::kAlive;
      break;
    }
    case State::kDead:
      state.state = State::kJoining;
      state.join_streak = 0;
      Announce(node, State::kDead, State::kJoining);
      [[fallthrough]];  // this beat is the first of the join streak
    case State::kJoining:
      ++state.join_streak;
      if (state.join_streak >= kJoinBeats) {
        state.state = State::kAlive;
        ++in_view_;
        rejoins_->Increment();
        BumpEpoch();
        Announce(node, State::kJoining, State::kAlive);
      }
      break;
  }
}

void GossipMembership::Evaluate(uint32_t node, SimTime now) {
  NodeState& state = nodes_[node];
  if (state.state == State::kDead) {
    return;  // only beats (NodeUp + delivery) bring a dead node back
  }
  if (state.state == State::kJoining) {
    // A joining node that misses a beat (still flapping) restarts its
    // streak from dead — one lucky beat must not rejoin the ring.
    if (now > state.last_beat) {
      state.state = State::kDead;
      state.join_streak = 0;
      Announce(node, State::kJoining, State::kDead);
    }
    return;
  }
  const double phi = (now - state.last_beat).nanos() /
                     static_cast<double>(kHeartbeatInterval.nanos());
  if (state.state == State::kAlive && phi >= kPhiSuspect) {
    state.state = State::kSuspect;
    state.was_up_at_suspicion = state.up;
    state.downs_at_suspicion = state.downs;
    suspicions_->Increment();
    Announce(node, State::kAlive, State::kSuspect);
  }
  if (state.state == State::kSuspect && phi >= kPhiDead) {
    state.state = State::kDead;
    state.join_streak = 0;
    --in_view_;
    deaths_->Increment();
    BumpEpoch();
    if (!state.up) {
      // True death: record how long the fleet served reads toward a corpse.
      detection_ms_.RecordDuration(now - state.down_since);
    }
    Announce(node, State::kSuspect, State::kDead);
  }
}

void GossipMembership::BumpEpoch() {
  ++epoch_;
  epoch_gauge_->Set(static_cast<double>(epoch_));
}

void GossipMembership::Announce(uint32_t node, State from, State to) {
  if (listener_) {
    listener_(Transition{node, from, to});
  }
}

}  // namespace trenv
