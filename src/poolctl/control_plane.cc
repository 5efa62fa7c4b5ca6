#include "src/poolctl/control_plane.h"

#include <algorithm>
#include <string>

namespace trenv {

namespace {

// Continuous rebalancer cadence.
constexpr SimDuration kRebalanceInterval = SimDuration::Millis(500);

// Heartbeat loss from the fault schedule: the worst kRdmaFlap window
// covering `now` that targets the node. Pure function of the schedule, so
// the detector's draws replay identically on every run.
double FlapLossAt(const FaultSchedule* faults, SimTime now, uint32_t node) {
  if (faults == nullptr) {
    return 0.0;
  }
  double loss = 0.0;
  for (const FaultWindow& window : faults->windows) {
    if (window.domain == FaultDomain::kRdmaFlap && window.Contains(now) &&
        window.Targets(node)) {
      loss = std::max(loss, window.probability);
    }
  }
  return loss;
}

}  // namespace

PoolControlPlane::PoolControlPlane(PoolCtlConfig config, PoolManager* mgr,
                                   const FaultSchedule* faults, obs::Registry& stats,
                                   obs::Tracer* tracer)
    : config_(config),
      mgr_(mgr),
      membership_(mgr->pool_node_count(), &mgr->clock(), stats),
      tracer_(tracer),
      rebalance_ticks_(stats.GetCounter("poolctl.rebalance_ticks")),
      pages_moved_(stats.GetCounter("poolctl.rebalance_pages")),
      hot_promotions_(stats.GetCounter("poolctl.hot_promotions")),
      hot_demotions_(stats.GetCounter("poolctl.hot_demotions")),
      under_replicated_gauge_(stats.GetGauge("poolctl.under_replicated_shards")) {
  mgr_->EnableContinuousControl(config_.policy);
  membership_.SetListener(
      [this](const GossipMembership::Transition& transition) { OnTransition(transition); });
  if (faults != nullptr && !faults->empty()) {
    membership_.SetHeartbeatLoss([faults](SimTime now, uint32_t node) {
      return FlapLossAt(faults, now, node);
    });
  }
  if (tracer_ != nullptr) {
    trace_pid_ = tracer_->RegisterProcess(
        "poolctl", [clock = &mgr_->clock()] { return clock->now(); });
  }
}

void PoolControlPlane::Start(SimTime now) {
  if (running_) {
    return;
  }
  running_ = true;
  membership_.Start(now);
  rebalance_event_ =
      mgr_->clock().ScheduleAt(now + kRebalanceInterval, [this] { RebalanceTick(); });
}

void PoolControlPlane::Quiesce() {
  if (!running_) {
    return;
  }
  running_ = false;
  membership_.Stop();
  if (rebalance_event_ != kInvalidEventId) {
    (void)mgr_->clock().Cancel(rebalance_event_);
    rebalance_event_ = kInvalidEventId;
  }
}

void PoolControlPlane::OnTransition(const GossipMembership::Transition& transition) {
  using State = GossipMembership::State;
  if (transition.to == State::kDead && transition.from == State::kSuspect) {
    mgr_->DeclareDead(transition.node);
  } else if (transition.to == State::kAlive && transition.from == State::kJoining) {
    mgr_->DeclareJoined(transition.node);
  }
  if (tracer_ != nullptr) {
    const char* name = nullptr;
    switch (transition.to) {
      case State::kSuspect:
        name = "membership.suspect";
        break;
      case State::kDead:
        name = transition.from == State::kJoining ? "membership.join_abort"
                                                  : "membership.dead";
        break;
      case State::kJoining:
        name = "membership.joining";
        break;
      case State::kAlive:
        name = transition.from == State::kJoining ? "membership.rejoined"
                                                  : "membership.recovered";
        break;
    }
    const obs::SpanId id = tracer_->Instant({trace_pid_, 0}, name, "poolctl");
    tracer_->Annotate(id, "pool_node", static_cast<int64_t>(transition.node));
    tracer_->Annotate(id, "epoch", static_cast<int64_t>(membership_.epoch()));
  }
}

void PoolControlPlane::RebalanceTick() {
  const SimTime now = mgr_->clock().now();
  const size_t nshards = mgr_->shard_count();
  scores_.resize(nshards, 0);
  last_fetches_.resize(nshards, 0);
  extra_.resize(nshards, 0);

  // Score update: halve (decay) and add this tick's fetch delta, then remap
  // scores to extra-replica targets. Promotion and demotion are both just a
  // different reconcile target — copies happen under the same budget, drops
  // are metadata-only.
  for (uint32_t s = 0; s < nshards; ++s) {
    const uint64_t fetches = mgr_->ShardFetches(s);
    const uint64_t delta = fetches - last_fetches_[s];
    last_fetches_[s] = fetches;
    scores_[s] = scores_[s] / 2 + delta;
    if (!config_.hot_shard_mitigation || config_.hot_promote_score == 0) {
      continue;
    }
    const uint32_t want = static_cast<uint32_t>(
        std::min<uint64_t>(config_.max_extra_replicas, scores_[s] / config_.hot_promote_score));
    if (want > extra_[s]) {
      hot_promotions_->Add(static_cast<double>(want - extra_[s]));
    } else if (want < extra_[s]) {
      hot_demotions_->Add(static_cast<double>(extra_[s] - want));
    }
    extra_[s] = want;
  }

  const uint32_t base = mgr_->base_replication();
  uint64_t budget = config_.rebalance_budget_pages;
  uint64_t moved = 0;
  // Pass 1 — restore first: shards below the static replication factor get
  // the budget before any ring-alignment or hot-extra copying, so rolling
  // restarts never let redundancy decay while cosmetic moves proceed.
  for (uint32_t s = 0; s < nshards && budget > 0; ++s) {
    if (!mgr_->ShardUnderReplicated(s)) {
      continue;
    }
    const PoolManager::ReconcileResult result =
        mgr_->ReconcileShard(s, base + extra_[s], budget);
    budget -= std::min(budget, result.pages_moved);
    moved += result.pages_moved;
  }
  // Pass 2 — alignment + hot extras, resuming from the cursor so every
  // shard gets reconciled eventually even when each tick's budget only
  // covers a few moves.
  bool exhausted = false;
  for (uint32_t i = 0; i < nshards; ++i) {
    const uint32_t s = (cursor_ + i) % static_cast<uint32_t>(nshards);
    const PoolManager::ReconcileResult result =
        mgr_->ReconcileShard(s, base + extra_[s], budget);
    budget -= std::min(budget, result.pages_moved);
    moved += result.pages_moved;
    if (budget == 0 && !result.converged) {
      cursor_ = s;  // resume here next tick
      exhausted = true;
      break;
    }
  }
  if (!exhausted) {
    cursor_ = 0;
  }

  rebalance_ticks_->Increment();
  pages_moved_->Add(static_cast<double>(moved));
  under_replicated_gauge_->Set(static_cast<double>(mgr_->UnderReplicatedShards()));
  if (tracer_ != nullptr && moved > 0) {
    const obs::SpanId id = tracer_->RecordSpanAt({trace_pid_, 0}, "rebalance.tick", "poolctl",
                                                 now, SimDuration::Zero());
    tracer_->Annotate(id, "pages_moved", static_cast<int64_t>(moved));
    tracer_->Annotate(id, "epoch", static_cast<int64_t>(membership_.epoch()));
  }
  if (running_) {
    rebalance_event_ = mgr_->clock().ScheduleAt(now + kRebalanceInterval,
                                                [this] { RebalanceTick(); });
  }
}

uint64_t PoolControlPlane::DispatchPenaltyMs(uint32_t worker, SimTime now) const {
  const SimDuration backlog = mgr_->NicBacklog(worker, now);
  uint64_t ms = static_cast<uint64_t>(backlog.nanos() / 1000000);
  if (membership_.alive_in_view() < membership_.fleet()) {
    ms *= 2;  // degraded view: a cold pull here risks dead-read timeouts
  }
  return ms;
}

}  // namespace trenv
