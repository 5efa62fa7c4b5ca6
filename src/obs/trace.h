// obs::Tracer: hierarchical spans stamped with the simulation's virtual time.
//
// A span is one phase of one invocation — "restore.sandbox", "mmt.attach",
// "exec.cpu" — placed on a (process, track) pair: the process is one platform
// / evaluated system (it owns the virtual clock), the track is one concurrent
// strand inside it (the platform numbers one per startup). Spans on the
// same track nest: StartSpan parents a new span under the track's innermost
// open span, which is exactly the invocation → restore → fault → fetch
// hierarchy when the call sites bracket their phases.
//
// Because the platform is event-driven, phases of one invocation start and
// end in different scheduler callbacks; span ids are plain values that live
// in the caller's state (e.g. the platform's InFlight record) between events.
//
// Cost when disabled: every entry point checks one branch and returns; no
// allocation, no clock read, no map touch. Call sites may also simply hold a
// null Tracer* and skip the calls.
#ifndef TRENV_OBS_TRACE_H_
#define TRENV_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/time.h"

namespace trenv {
namespace obs {

using SpanId = uint64_t;
inline constexpr SpanId kInvalidSpanId = 0;

using ProcessId = uint64_t;

// Where a span lives: which registered process (clock domain) and which
// track (concurrent strand — e.g. one invocation's startup) inside it.
struct Loc {
  ProcessId pid = 0;
  uint64_t track = 0;
};

// Span annotation value: integers, floating point, or strings.
using AnnotationValue = std::variant<int64_t, double, std::string>;

struct Span {
  SpanId id = kInvalidSpanId;
  SpanId parent = kInvalidSpanId;
  std::string name;
  std::string category;
  Loc loc;
  SimTime start;
  SimTime end;
  bool open = false;
  bool instant = false;
  std::vector<std::pair<std::string, AnnotationValue>> args;

  SimDuration duration() const { return end - start; }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Tracing is on by default for a constructed tracer; instrumented code that
  // was handed no tracer at all passes nullptr and pays only a null check.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Registers a clock domain (one platform / scheduler). All spans at a Loc
  // with this pid are stamped by `clock`. Returns the pid to put in Locs.
  ProcessId RegisterProcess(std::string name, std::function<SimTime()> clock);

  // Virtual "now" of a process (Zero for unknown pids).
  SimTime now(ProcessId pid) const;

  // Opens a span at the process's current virtual time. The parent is the
  // innermost span still open on the same (pid, track); pass `parent`
  // explicitly to override. Returns kInvalidSpanId when disabled.
  SpanId StartSpan(Loc loc, std::string_view name, std::string_view category = {},
                   SpanId parent = kInvalidSpanId);

  // Closes a span at its process's current virtual time. No-op on
  // kInvalidSpanId or an already-closed span.
  void EndSpan(SpanId id);

  // Records an already-timed span (event-driven phases whose begin/end the
  // caller computed). Does not interact with the open-span stack.
  SpanId RecordSpanAt(Loc loc, std::string_view name, std::string_view category, SimTime start,
                      SimDuration duration, SpanId parent = kInvalidSpanId);

  // A zero-duration marker (dispatch decisions, evictions).
  SpanId Instant(Loc loc, std::string_view name, std::string_view category = {});

  // Attaches a key/value to a span. No-op on kInvalidSpanId.
  void Annotate(SpanId id, std::string_view key, AnnotationValue value);

  // Appends everything `other` recorded, remapping its process and span ids
  // into this tracer. Parallel sweeps use this: each run records into a
  // private tracer, and the per-run tracers merge into the main one in
  // deterministic run order after the sweep joins. All of `other`'s spans
  // should be closed; merged processes carry no clock (spans keep their
  // recorded times, but new spans at those pids would stamp time Zero).
  void MergeFrom(const Tracer& other);

  // Introspection (exporters, tests).
  const std::vector<Span>& spans() const { return spans_; }
  const Span* Find(SpanId id) const;
  size_t open_span_count() const;
  const std::map<ProcessId, std::string>& process_names() const { return process_names_; }
  void Clear();

 private:
  Span* Mutable(SpanId id);

  bool enabled_ = true;
  ProcessId next_pid_ = 1;
  std::map<ProcessId, std::string> process_names_;
  std::map<ProcessId, std::function<SimTime()>> clocks_;
  // Span id = index into spans_ + 1, so lookup is O(1).
  std::vector<Span> spans_;
  // Innermost-open-span stacks, keyed by (pid, track).
  std::map<std::pair<ProcessId, uint64_t>, std::vector<SpanId>> open_;
};

}  // namespace obs
}  // namespace trenv

#endif  // TRENV_OBS_TRACE_H_
