#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/sim/event_scheduler.h"

namespace trenv {
namespace {

// Independent seed stream for the node plan so it never shifts with the
// number of fetch-path draws that preceded PlanNodeEvents.
constexpr uint64_t kNodePlanSeedSalt = 0x9E3779B97F4A7C15ULL;

}  // namespace

FaultInjector::FaultInjector(FaultSchedule schedule, obs::Registry& stats)
    : schedule_(std::move(schedule)),
      rng_(schedule_.seed),
      injected_(stats.GetCounter("fault.injected")),
      retries_(stats.GetCounter("fault.retries")),
      failovers_(stats.GetCounter("fault.failovers")),
      crashes_(stats.GetCounter("fault.crashes")),
      restarts_(stats.GetCounter("fault.restarts")),
      deferred_(stats.GetCounter("fault.deferred")),
      corrupt_fetches_(stats.GetCounter("fault.corrupt_fetches")),
      exhausted_fetches_(stats.GetCounter("fault.exhausted_fetches")) {}

SimTime FaultInjector::Now() const {
  return clock_ != nullptr ? clock_->now() : SimTime::Zero();
}

FaultInjector::FetchFault FaultInjector::OnFetchAttempt(PoolKind kind,
                                                        uint32_t pool_active_streams) {
  FetchFault fault;
  if (!Active()) return fault;
  const SimTime now = Now();
  for (const FaultWindow& w : schedule_.windows) {
    if (!w.Contains(now)) continue;
    switch (w.domain) {
      case FaultDomain::kRdmaFlap:
        if (kind == PoolKind::kRdma && rng_.NextBool(w.probability)) {
          fault.fail = true;
          RecordInjection(now, w.domain, w.target);
        }
        break;
      case FaultDomain::kRdmaDegrade:
        if (kind == PoolKind::kRdma) {
          // Load-dependent spike: the more concurrent fetch streams, the
          // worse the degraded NIC behaves.
          fault.latency_multiplier *=
              1.0 + w.severity * static_cast<double>(std::max(1u, pool_active_streams));
        }
        break;
      case FaultDomain::kCxlPortDegrade:
        if (kind == PoolKind::kCxl && w.Targets(active_node_)) {
          fault.latency_multiplier *= std::max(1.0, w.severity);
        }
        break;
      case FaultDomain::kNasStall:
        if (kind == PoolKind::kNas && rng_.NextBool(w.probability)) {
          fault.fail = true;
          RecordInjection(now, w.domain, w.target);
        }
        break;
      case FaultDomain::kPageCorruption:
        if ((kind == PoolKind::kRdma || kind == PoolKind::kNas) &&
            rng_.NextBool(w.probability)) {
          fault.corrupt = true;
          RecordInjection(now, w.domain, w.target);
        }
        break;
      case FaultDomain::kNodeCrash:
      case FaultDomain::kPoolPressure:
      case FaultDomain::kPoolNodeCrash:
        break;  // node-level domains; expanded by PlanNodeEvents
    }
  }
  return fault;
}

double FaultInjector::DirectLoadMultiplier(PoolKind kind) const {
  if (!Active() || kind != PoolKind::kCxl) return 1.0;
  const SimTime now = Now();
  double multiplier = 1.0;
  for (const FaultWindow& w : schedule_.windows) {
    if (w.domain != FaultDomain::kCxlPortDegrade) continue;
    if (!w.Contains(now) || !w.Targets(active_node_)) continue;
    multiplier *= std::max(1.0, w.severity);
  }
  return multiplier;
}

std::vector<FaultInjector::NodeEvent> FaultInjector::PlanNodeEvents(uint32_t node_count,
                                                                    uint32_t pool_node_count) {
  std::vector<NodeEvent> plan;
  if (!Active() || node_count == 0) return plan;
  Rng plan_rng(schedule_.seed ^ kNodePlanSeedSalt);
  for (const FaultWindow& w : schedule_.windows) {
    switch (w.domain) {
      case FaultDomain::kNodeCrash:
      case FaultDomain::kPoolNodeCrash: {
        const bool pool = w.domain == FaultDomain::kPoolNodeCrash;
        // Pool-crash windows are skipped (draw-free) when no pool exists, so
        // adding them to a schedule perturbs nothing in poolless runs.
        if (pool && pool_node_count == 0) break;
        if (!plan_rng.NextBool(w.probability)) break;
        // Crash windows must be bounded so a concrete instant can be drawn.
        const SimTime end = w.end == SimTime::Max() ? w.start + SimDuration::Seconds(1) : w.end;
        const int64_t span = std::max<int64_t>(1, (end - w.start).nanos());
        const SimTime when =
            w.start + SimDuration(static_cast<int64_t>(plan_rng.NextBounded(
                          static_cast<uint64_t>(span))));
        const uint32_t fleet = pool ? pool_node_count : node_count;
        const uint32_t node = w.target == kAnyTarget
                                  ? static_cast<uint32_t>(plan_rng.NextBounded(fleet))
                                  : std::min(w.target, fleet - 1);
        NodeEvent crash;
        crash.time = when;
        crash.node = node;
        crash.kind = pool ? NodeEvent::Kind::kPoolCrash : NodeEvent::Kind::kCrash;
        plan.push_back(crash);
        if (w.restart_after > SimDuration::Zero()) {
          NodeEvent restart = crash;
          restart.time = when + w.restart_after;
          restart.kind = pool ? NodeEvent::Kind::kPoolRestart : NodeEvent::Kind::kRestart;
          plan.push_back(restart);
        }
        break;
      }
      case FaultDomain::kPoolPressure: {
        NodeEvent begin;
        begin.time = w.start;
        begin.node = w.target;
        begin.kind = NodeEvent::Kind::kPressureStart;
        begin.severity = w.severity;
        plan.push_back(begin);
        if (w.end != SimTime::Max()) {
          NodeEvent finish = begin;
          finish.time = w.end;
          finish.kind = NodeEvent::Kind::kPressureEnd;
          finish.severity = 1.0;
          plan.push_back(finish);
        }
        break;
      }
      default:
        break;  // fetch-path domains; handled by OnFetchAttempt
    }
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const NodeEvent& a, const NodeEvent& b) { return a.time < b.time; });
  return plan;
}

void FaultInjector::RecordInjection(SimTime t, FaultDomain domain, uint32_t target) {
  log_.push_back(Injection{t.nanos(), domain, target});
  injected_->Increment();
  if (domain == FaultDomain::kNodeCrash) {
    crashes_->Increment();
  }
}

void FaultInjector::CountRetry() { retries_->Increment(); }

void FaultInjector::CountFailover(SimDuration recovery_latency) {
  failovers_->Increment();
  recovery_ms_.RecordDuration(recovery_latency);
}

void FaultInjector::CountDeferred() { deferred_->Increment(); }

void FaultInjector::CountRestart() { restarts_->Increment(); }

void FaultInjector::CountExhausted() { exhausted_fetches_->Increment(); }

void FaultInjector::CountCorrupt() { corrupt_fetches_->Increment(); }

}  // namespace trenv
