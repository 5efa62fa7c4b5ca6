// Host-clock spans recorded by the benchmark around its calls into the
// simulator's layers. Every span has a name, a start, an end and the span
// that was open when it began (its parent). Per-name totals (count and total
// time) are kept for every span; the first kMaxRecords spans are also kept
// verbatim in memory and written out as a Chrome trace_event file when the
// run ends.
//
// Single-threaded: spans are opened and closed on the driving thread only.
#ifndef TRENV_PERFBENCH_SPAN_LOG_H_
#define TRENV_PERFBENCH_SPAN_LOG_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process (every thread, user + system). Unlike wall
// time it does not grow while other processes hold the CPUs.
inline int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Times one phase on both host clocks from construction.
struct Stopwatch {
  int64_t wall_start_ns = HostNowNs();
  int64_t cpu_start_ns = ProcessCpuNs();

  double WallSeconds() const { return static_cast<double>(HostNowNs() - wall_start_ns) / 1e9; }
  double CpuSeconds() const { return static_cast<double>(ProcessCpuNs() - cpu_start_ns) / 1e9; }
};

class SpanLog {
 public:
  static constexpr size_t kMaxRecords = 100000;

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
  };

  // Opens a span named `name` (a string literal: the pointer is kept).
  void Begin(const char* name) {
    const uint32_t kind = KindOf(name);
    int32_t record = -1;
    if (records_.size() < kMaxRecords) {
      record = static_cast<int32_t>(records_.size());
      const int32_t parent = open_.empty() ? -1 : open_.back().record;
      records_.push_back(Record{kind, parent, 0, 0});
    } else {
      ++dropped_;
    }
    open_.push_back(Open{kind, record, HostNowNs()});
    if (record >= 0) {
      records_[record].start_ns = open_.back().start_ns;
    }
  }

  void End() {
    const int64_t now = HostNowNs();
    const Open span = open_.back();
    open_.pop_back();
    Totals& totals = kinds_[span.kind].totals;
    ++totals.count;
    totals.total_ns += now - span.start_ns;
    if (span.record >= 0) {
      records_[span.record].end_ns = now;
    }
  }

  // Totals of every span named `name` (all zero if none was recorded).
  Totals totals(std::string_view name) const {
    for (const Kind& kind : kinds_) {
      if (name == kind.name) {
        return kind.totals;
      }
    }
    return {};
  }

  size_t recorded() const { return records_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Writes the kept spans as complete ("X") events, one track, microsecond
  // timestamps relative to the first span; the parent index rides in args.
  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":" << dropped_
        << "},\"traceEvents\":[";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << kinds_[r.kind].name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(r.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Kind {
    const char* name;
    Totals totals;
  };
  struct Record {
    uint32_t kind;
    int32_t parent;  // index into records_, -1 for a root span
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Open {
    uint32_t kind;
    int32_t record;  // -1 once kMaxRecords spans are kept
    int64_t start_ns;
  };

  uint32_t KindOf(const char* name) {
    // Pointer match first: a literal is one pointer wherever it is used.
    for (uint32_t i = 0; i < kinds_.size(); ++i) {
      if (kinds_[i].name == name) {
        return i;
      }
    }
    for (uint32_t i = 0; i < kinds_.size(); ++i) {
      if (std::strcmp(kinds_[i].name, name) == 0) {
        return i;
      }
    }
    kinds_.push_back(Kind{name, {}});
    return static_cast<uint32_t>(kinds_.size() - 1);
  }

  std::vector<Kind> kinds_;
  std::vector<Record> records_;
  std::vector<Open> open_;
  uint64_t dropped_ = 0;
};

// RAII span; a no-op when `log` is null (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) {
      log_->Begin(name);
    }
  }
  ~Span() {
    if (log_ != nullptr) {
      log_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // TRENV_PERFBENCH_SPAN_LOG_H_
