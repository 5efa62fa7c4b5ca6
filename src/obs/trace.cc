#include "src/obs/trace.h"

#include <algorithm>

namespace trenv {
namespace obs {

ProcessId Tracer::RegisterProcess(std::string name, std::function<SimTime()> clock) {
  const ProcessId pid = next_pid_++;
  process_names_.emplace(pid, std::move(name));
  clocks_.emplace(pid, std::move(clock));
  return pid;
}

SimTime Tracer::now(ProcessId pid) const {
  auto it = clocks_.find(pid);
  return it == clocks_.end() || !it->second ? SimTime::Zero() : it->second();
}

SpanId Tracer::StartSpan(Loc loc, std::string_view name, std::string_view category,
                         SpanId parent) {
  if (!enabled_) {
    return kInvalidSpanId;
  }
  auto& stack = open_[{loc.pid, loc.track}];
  if (parent == kInvalidSpanId && !stack.empty()) {
    parent = stack.back();
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::string(name);
  span.category = std::string(category);
  span.loc = loc;
  span.start = now(loc.pid);
  span.end = span.start;
  span.open = true;
  spans_.push_back(std::move(span));
  stack.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::EndSpan(SpanId id) {
  Span* span = Mutable(id);
  if (span == nullptr || !span->open) {
    return;
  }
  span->end = now(span->loc.pid);
  span->open = false;
  auto stack_it = open_.find({span->loc.pid, span->loc.track});
  if (stack_it != open_.end()) {
    auto& stack = stack_it->second;
    stack.erase(std::remove(stack.begin(), stack.end(), id), stack.end());
    if (stack.empty()) {
      open_.erase(stack_it);
    }
  }
}

SpanId Tracer::RecordSpanAt(Loc loc, std::string_view name, std::string_view category,
                            SimTime start, SimDuration duration, SpanId parent) {
  if (!enabled_) {
    return kInvalidSpanId;
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::string(name);
  span.category = std::string(category);
  span.loc = loc;
  span.start = start;
  span.end = start + duration;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

SpanId Tracer::Instant(Loc loc, std::string_view name, std::string_view category) {
  if (!enabled_) {
    return kInvalidSpanId;
  }
  const SimTime t = now(loc.pid);
  const SpanId id = RecordSpanAt(loc, name, category, t, SimDuration::Zero());
  Span* span = Mutable(id);
  if (span != nullptr) {
    span->instant = true;
  }
  return id;
}

void Tracer::Annotate(SpanId id, std::string_view key, AnnotationValue value) {
  Span* span = Mutable(id);
  if (span == nullptr) {
    return;
  }
  span->args.emplace_back(std::string(key), std::move(value));
}

void Tracer::MergeFrom(const Tracer& other) {
  if (!enabled_) {
    return;
  }
  std::map<ProcessId, ProcessId> pid_map;
  for (const auto& [pid, name] : other.process_names_) {
    pid_map[pid] = RegisterProcess(name, nullptr);
  }
  const SpanId id_base = spans_.size();
  for (const Span& span : other.spans_) {
    Span copy = span;
    copy.id += id_base;
    if (copy.parent != kInvalidSpanId) {
      copy.parent += id_base;
    }
    auto it = pid_map.find(copy.loc.pid);
    if (it != pid_map.end()) {
      copy.loc.pid = it->second;
    }
    spans_.push_back(std::move(copy));
  }
}

const Span* Tracer::Find(SpanId id) const {
  if (id == kInvalidSpanId || id > spans_.size()) {
    return nullptr;
  }
  return &spans_[id - 1];
}

Span* Tracer::Mutable(SpanId id) {
  if (id == kInvalidSpanId || id > spans_.size()) {
    return nullptr;
  }
  return &spans_[id - 1];
}

size_t Tracer::open_span_count() const {
  size_t n = 0;
  for (const auto& [key, stack] : open_) {
    n += stack.size();
  }
  return n;
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
}

}  // namespace obs
}  // namespace trenv
