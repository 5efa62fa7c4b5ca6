// Discrete-event scheduler: the heart of the simulation.
//
// All platform dynamics (invocation arrivals, startup phases, CPU sharing,
// keep-alive expiry) are events on one virtual timeline. Events scheduled for
// the same instant execute in scheduling order, which keeps runs
// deterministic for a fixed seed.
//
// Implementation: a vector-backed binary min-heap keyed by (time, insertion
// sequence) — identical dispatch order to the previous red-black-tree
// implementation, without its two node allocations per ScheduleAt. Heap
// entries are 24-byte PODs; callbacks live in a free-listed slot arena, and
// the EventId encodes (slot, generation) so Cancel and the liveness test at
// pop are O(1) array accesses with no hashing. Cancellation is lazy: Cancel
// destroys the callback and bumps the slot generation; the heap entry stays
// behind as a tombstone, recognized at pop by its stale generation and
// skipped. Compact() bounds tombstone growth so a schedule/cancel-heavy
// workload (the keep-alive pattern) cannot bloat the heap past ~2x the live
// event count.
#ifndef TRENV_SIM_EVENT_SCHEDULER_H_
#define TRENV_SIM_EVENT_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/time.h"

namespace trenv {

// Encodes (generation << 32) | (slot + 1); 0 is never a valid id.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventScheduler {
 public:
  EventScheduler() = default;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  SimTime now() const { return now_; }

  // Schedules fn at absolute time t (must be >= now()).
  EventId ScheduleAt(SimTime t, std::function<void()> fn);
  // Schedules fn after a relative delay (clamped to >= 0).
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn);
  // Cancels a pending event. Returns false if it already ran or was cancelled.
  bool Cancel(EventId id);

  bool HasPending() const { return live_count_ > 0; }
  size_t pending_count() const { return live_count_; }

  // Time of the earliest live event, or nullopt when the queue is idle.
  // Non-const: prunes cancelled tombstones off the heap top to find it.
  // Lets external drivers (shstate::PipelineDriver) interleave their own
  // scheduler with the cluster's without running anything early.
  std::optional<SimTime> NextEventTime();

  // Runs the earliest pending event, advancing the clock. Returns false if
  // there was nothing to run.
  bool RunNext();
  // Drains the event queue completely.
  void RunUntilIdle();
  // Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(SimTime t);

  // Drops every pending event without running it; the clock does not move.
  // Outstanding EventIds become stale (Cancel on them returns false). Models
  // a node crash: whatever the dead node had queued simply never happens.
  void Clear();

  uint64_t executed_count() const { return executed_; }

 private:
  struct HeapEntry {
    SimTime time;
    uint64_t seq = 0;  // insertion order; tie-break at equal times
    uint32_t slot = 0;
    uint32_t generation = 0;
  };
  // std::push_heap/pop_heap build a max-heap on "less", so "a after b" as the
  // comparator yields a min-heap on (time, seq).
  struct RunsAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return b.time < a.time || (b.time == a.time && b.seq < a.seq);
    }
  };
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 0;
    bool live = false;
  };

  bool IsLive(const HeapEntry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return slot.live && slot.generation == entry.generation;
  }
  // Releases a slot back to the free list, invalidating outstanding ids and
  // heap tombstones pointing at it.
  void ReleaseSlot(uint32_t index);
  // Pops tombstones (cancelled entries) off the heap top so front() — when it
  // exists — is the earliest live event.
  void PruneCancelledTop();
  // Rebuilds the heap without tombstones; called when tombstones outnumber
  // live events.
  void Compact();

  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  size_t live_count_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace trenv

#endif  // TRENV_SIM_EVENT_SCHEDULER_H_
