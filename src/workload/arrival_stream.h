// Pull-based arrival generation: the streaming half of the sharded-core
// refactor. A 10M-invocation trace never lives in memory — each generator
// keeps per-function state plus a bounded reorder buffer and hands out
// invocations one at a time in non-decreasing arrival order.
//
// Equivalence contract (pinned by tests/arrival_stream_test.cc): collecting a
// stream to a vector is byte-identical to the generate-then-SortSchedule
// path using the same RNG draws. The materialized MakeXxxWorkload helpers in
// arrival.h are now thin wrappers over these streams, so anything that held
// for the vectors holds for the streams.
//
// RNG ownership: streams borrow the caller's Rng (not owned) and consume it
// lazily, so a fully drained stream leaves the Rng exactly where the old
// materialized generator left it. Don't touch the Rng while a stream that
// borrowed it is still live.
#ifndef TRENV_WORKLOAD_ARRIVAL_STREAM_H_
#define TRENV_WORKLOAD_ARRIVAL_STREAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/workload/arrival.h"

namespace trenv {

// One invocation at a time, arrival times non-decreasing, nullopt when the
// trace is exhausted. Next() may be called again after exhaustion. The
// generators below intern their function names once, at construction.
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;
  virtual std::optional<Invocation> Next() = 0;
};

// Drains a stream into a Schedule (already sorted by construction).
Schedule CollectAll(ArrivalStream& stream);

// Adapter for callers that already hold a materialized Schedule (must stay
// alive and unmodified while the stream reads it).
class ScheduleStream final : public ArrivalStream {
 public:
  explicit ScheduleStream(const Schedule& schedule) : schedule_(&schedule) {}
  std::optional<Invocation> Next() override {
    if (index_ >= schedule_->size()) {
      return std::nullopt;
    }
    return (*schedule_)[index_++];
  }

 private:
  const Schedule* schedule_;
  size_t index_ = 0;
};

// Plain Poisson arrivals with Zipf function choice; already monotone in the
// generator, so no reorder buffer at all. Draw-for-draw identical to the
// historical MakePoissonWorkload loop.
class PoissonArrivalStream final : public ArrivalStream {
 public:
  PoissonArrivalStream(const std::vector<std::string>& functions, double rate_per_sec,
                       SimDuration duration, double function_skew, Rng* rng);
  std::optional<Invocation> Next() override;

 private:
  std::vector<FunctionId> functions_;
  double rate_per_sec_;
  double duration_s_;
  ZipfSampler zipf_;
  Rng* rng_;
  double t_ = 0;
  bool started_ = false;
  bool done_;
};

// W2 diurnal arrivals. The generator walks one base timeline; clump siblings
// land up to ~1 s past their base arrival, so a bounded (time, seq)-ordered
// buffer holds at most the clumps still ahead of the base clock — emission is
// safe once the buffered arrival is at or before the base time, because every
// future item lands at or after it. Draw-for-draw identical to the historical
// generate-then-stable_sort loop.
class DiurnalArrivalStream final : public ArrivalStream {
 public:
  DiurnalArrivalStream(const std::vector<std::string>& functions,
                       const DiurnalOptions& options, Rng* rng);
  std::optional<Invocation> Next() override;

 private:
  struct Buffered {
    SimTime time;
    uint64_t seq;  // generation order: the stable_sort tie-break
    uint32_t fn;
  };
  struct BufferedAfter {
    bool operator()(const Buffered& a, const Buffered& b) const {
      return a.time != b.time ? b.time < a.time : b.seq < a.seq;
    }
  };
  // Runs one iteration of the base-timeline loop, pushing 1 + clump_size
  // items into the buffer; sets gen_done_ when the timeline passes duration.
  void GenerateOne();

  std::vector<FunctionId> functions_;
  DiurnalOptions options_;
  double duration_s_;
  ZipfSampler zipf_;
  Rng* rng_;
  double t_ = 0;            // base timeline (seconds); the emission watermark
  uint64_t next_seq_ = 0;
  bool gen_done_;
  std::vector<Buffered> heap_;  // min-heap by (time, seq) via BufferedAfter
};

// W1 bursty arrivals. Per-function generator state: each function gets an
// independent child RNG forked from the caller's Rng (in function order) at
// construction, drives its own burst timeline, and buffers one burst (more
// only if bursts overlap) in a (time, seq) min-heap. A k-way merge across
// functions emits globally sorted arrivals with the stable_sort tie-break
// (time, function index, per-function generation order).
//
// Note the RNG derivation: the pre-stream generator threaded ONE shared Rng
// through all functions back-to-back, which cannot be streamed (function k's
// draws depended on every draw of functions 0..k-1). Forked child RNGs make
// the functions independent; the materialized MakeBurstyWorkload wrapper uses
// the same forked scheme, and the equivalence test pins stream == collect.
class BurstyArrivalStream final : public ArrivalStream {
 public:
  BurstyArrivalStream(const std::vector<std::string>& functions, const BurstyOptions& options,
                      Rng* rng);
  std::optional<Invocation> Next() override;

 private:
  struct Buffered {
    SimTime time;
    uint64_t seq;
  };
  struct BufferedAfter {
    bool operator()(const Buffered& a, const Buffered& b) const {
      return a.time != b.time ? b.time < a.time : b.seq < a.seq;
    }
  };
  struct FnState {
    FunctionId function;
    Rng rng;
    SimTime next_burst;
    uint64_t next_seq = 0;
    bool done = false;
    std::vector<Buffered> heap_;  // min-heap by (time, seq)
  };
  struct MergeEntry {
    SimTime time;
    uint32_t fn;
    uint64_t seq;
  };
  struct MergeAfter {
    bool operator()(const MergeEntry& a, const MergeEntry& b) const {
      if (a.time != b.time) {
        return b.time < a.time;
      }
      return a.fn != b.fn ? b.fn < a.fn : b.seq < a.seq;
    }
  };
  // Generates bursts until the function's buffer front is safe to emit (all
  // future items of this function arrive at or after it), then moves the
  // front into the merge heap. No-op if the function is exhausted and empty.
  void RefillMergeFrom(uint32_t fn);

  BurstyOptions options_;
  SimTime end_;
  std::vector<FnState> functions_;
  std::vector<MergeEntry> merge_;  // min-heap by (time, fn, seq) via MergeAfter
};

}  // namespace trenv

#endif  // TRENV_WORKLOAD_ARRIVAL_STREAM_H_
