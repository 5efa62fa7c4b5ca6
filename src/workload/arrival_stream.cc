#include "src/workload/arrival_stream.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace trenv {
namespace {

std::vector<FunctionId> InternAll(const std::vector<std::string>& names) {
  std::vector<FunctionId> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) {
    ids.push_back(InternFunction(name));
  }
  return ids;
}

}  // namespace

Schedule CollectAll(ArrivalStream& stream) {
  Schedule schedule;
  while (auto invocation = stream.Next()) {
    schedule.push_back(std::move(*invocation));
  }
  return schedule;
}

PoissonArrivalStream::PoissonArrivalStream(const std::vector<std::string>& functions,
                                           double rate_per_sec, SimDuration duration,
                                           double function_skew, Rng* rng)
    : functions_(InternAll(functions)),
      rate_per_sec_(rate_per_sec),
      duration_s_(duration.seconds()),
      zipf_(functions_.size(), function_skew),
      rng_(rng),
      done_(functions_.empty() || rate_per_sec <= 0) {}

std::optional<Invocation> PoissonArrivalStream::Next() {
  if (done_) {
    return std::nullopt;
  }
  if (!started_) {
    started_ = true;
    t_ = rng_->NextExponential(1.0 / rate_per_sec_);
  }
  if (t_ >= duration_s_) {
    done_ = true;
    return std::nullopt;
  }
  const uint64_t pick = zipf_.Draw(*rng_);
  Invocation invocation{SimTime::Zero() + SimDuration::FromSecondsF(t_), functions_[pick]};
  t_ += rng_->NextExponential(1.0 / rate_per_sec_);
  return invocation;
}

DiurnalArrivalStream::DiurnalArrivalStream(const std::vector<std::string>& functions,
                                           const DiurnalOptions& options, Rng* rng)
    : functions_(InternAll(functions)),
      options_(options),
      duration_s_(options.duration.seconds()),
      zipf_(functions_.size(), options.function_skew),
      rng_(rng),
      gen_done_(functions_.empty()) {}

void DiurnalArrivalStream::GenerateOne() {
  // One iteration of the historical loop, verbatim: rate from the raised
  // sinusoid, exponential step, rotated Zipf pick, optional clump.
  const double phase = 2.0 * std::numbers::pi * options_.cycles * (t_ / duration_s_);
  const double mix = 0.5 * (1.0 - std::cos(phase));
  const double rate = options_.trough_rate_per_sec +
                      (options_.peak_rate_per_sec - options_.trough_rate_per_sec) * mix;
  t_ += rng_->NextExponential(1.0 / std::max(rate, 1e-3));
  if (t_ >= duration_s_) {
    gen_done_ = true;
    return;
  }
  const uint64_t rotation = static_cast<uint64_t>(
      options_.cycles * t_ / duration_s_ * static_cast<double>(functions_.size()));
  const uint32_t pick = static_cast<uint32_t>(
      (zipf_.Draw(*rng_) + rotation) % functions_.size());
  heap_.push_back({SimTime::Zero() + SimDuration::FromSecondsF(t_), next_seq_++, pick});
  std::push_heap(heap_.begin(), heap_.end(), BufferedAfter{});
  if (rng_->NextBool(options_.clump_probability)) {
    for (uint32_t k = 0; k < options_.clump_size; ++k) {
      heap_.push_back({SimTime::Zero() +
                           SimDuration::FromSecondsF(t_ + rng_->NextUniform(0.0, 1.0)),
                       next_seq_++, pick});
      std::push_heap(heap_.begin(), heap_.end(), BufferedAfter{});
    }
  }
}

std::optional<Invocation> DiurnalArrivalStream::Next() {
  // Emit the buffer front once it is at or before the base timeline: every
  // item still ungenerated lands at t >= t_ (clump offsets are nonnegative),
  // and equal-time latecomers carry a larger seq, so (time, seq) order —
  // stable_sort order — is final for the front.
  const auto front_safe = [&] {
    return !heap_.empty() &&
           heap_.front().time <= SimTime::Zero() + SimDuration::FromSecondsF(t_);
  };
  while (!gen_done_ && !front_safe()) {
    GenerateOne();
  }
  if (heap_.empty()) {
    return std::nullopt;
  }
  std::pop_heap(heap_.begin(), heap_.end(), BufferedAfter{});
  const Buffered item = heap_.back();
  heap_.pop_back();
  return Invocation{item.time, functions_[item.fn]};
}

BurstyArrivalStream::BurstyArrivalStream(const std::vector<std::string>& functions,
                                         const BurstyOptions& options, Rng* rng)
    : options_(options), end_(SimTime::Zero() + options.duration) {
  functions_.reserve(functions.size());
  for (const std::string& name : functions) {
    // Children are forked in function order, so the parent Rng advances by
    // exactly one draw per function regardless of trace length.
    FnState state{InternFunction(name), rng->Fork(), SimTime::Zero(), 0, false, {}};
    state.next_burst =
        SimTime::Zero() + SimDuration::FromSecondsF(state.rng.NextUniform(0, 30));
    functions_.push_back(std::move(state));
  }
  merge_.reserve(functions_.size());
  for (uint32_t fn = 0; fn < functions_.size(); ++fn) {
    RefillMergeFrom(fn);
  }
}

void BurstyArrivalStream::RefillMergeFrom(uint32_t fn) {
  FnState& state = functions_[fn];
  // A burst's offsets land in [next_burst, next_burst + spread); every later
  // burst starts at or after next_burst (gaps are nonnegative). So the buffer
  // front is final once it is at or before next_burst — generate bursts until
  // that holds (one burst in the common case; more only if bursts overlap).
  while (!state.done &&
         (state.heap_.empty() || state.next_burst < state.heap_.front().time)) {
    if (!(state.next_burst < end_)) {
      state.done = true;
      break;
    }
    for (uint32_t i = 0; i < options_.burst_size; ++i) {
      const SimDuration offset = SimDuration::FromSecondsF(
          state.rng.NextUniform(0, options_.burst_spread.seconds()));
      state.heap_.push_back({state.next_burst + offset, state.next_seq++});
      std::push_heap(state.heap_.begin(), state.heap_.end(), BufferedAfter{});
    }
    const double gap_s = options_.inter_burst.seconds() * state.rng.NextUniform(1.0, 1.2);
    state.next_burst += SimDuration::FromSecondsF(gap_s);
  }
  if (state.heap_.empty()) {
    return;
  }
  std::pop_heap(state.heap_.begin(), state.heap_.end(), BufferedAfter{});
  const Buffered item = state.heap_.back();
  state.heap_.pop_back();
  merge_.push_back({item.time, fn, item.seq});
  std::push_heap(merge_.begin(), merge_.end(), MergeAfter{});
}

std::optional<Invocation> BurstyArrivalStream::Next() {
  if (merge_.empty()) {
    return std::nullopt;
  }
  std::pop_heap(merge_.begin(), merge_.end(), MergeAfter{});
  const MergeEntry entry = merge_.back();
  merge_.pop_back();
  Invocation invocation{entry.time, functions_[entry.fn].function};
  RefillMergeFrom(entry.fn);
  return invocation;
}

}  // namespace trenv
