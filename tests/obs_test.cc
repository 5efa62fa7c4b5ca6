// Tests for the observability subsystem: tracer span nesting under virtual
// time, registry counter/gauge semantics, Chrome-trace JSON well-formedness
// (parsed back by a minimal JSON reader), and the disabled fast path.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/platform/testbed.h"
#include "src/sim/event_scheduler.h"

namespace trenv {
namespace {

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, CounterCreateOnFirstUseAndStablePointer) {
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("faults.minor");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0.0);
  c->Increment();
  c->Add(2.5);
  EXPECT_DOUBLE_EQ(c->value(), 3.5);
  // Same name -> same instrument.
  EXPECT_EQ(registry.GetCounter("faults.minor"), c);
  EXPECT_EQ(registry.FindCounter("faults.minor"), c);
  EXPECT_EQ(registry.FindCounter("never.created"), nullptr);
}

TEST(RegistryTest, GaugeTracksHighWaterMark) {
  obs::Registry registry;
  obs::Gauge* g = registry.GetGauge("pool.occupancy");
  g->Set(10.0);
  g->Set(4.0);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  EXPECT_DOUBLE_EQ(g->max(), 10.0);
  g->Add(8.0);
  EXPECT_DOUBLE_EQ(g->value(), 12.0);
  EXPECT_DOUBLE_EQ(g->max(), 12.0);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsInstruments) {
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("a");
  obs::Gauge* g = registry.GetGauge("b");
  c->Add(7.0);
  g->Set(9.0);
  registry.Reset();
  // Cached pointers stay valid and read zero.
  EXPECT_DOUBLE_EQ(c->value(), 0.0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_DOUBLE_EQ(g->max(), 0.0);
  EXPECT_EQ(registry.GetCounter("a"), c);
}

TEST(RegistryTest, IterationIsSortedByName) {
  obs::Registry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha");
  registry.GetCounter("mid");
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters()) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

// ---------------------------------------------------------------------------
// Tracer under virtual time

TEST(TracerTest, SpansAreStampedWithVirtualTime) {
  EventScheduler scheduler;
  obs::Tracer tracer;
  const obs::ProcessId pid =
      tracer.RegisterProcess("sim", [&] { return scheduler.now(); });

  obs::SpanId outer = obs::kInvalidSpanId;
  obs::SpanId inner = obs::kInvalidSpanId;
  scheduler.ScheduleAt(SimTime::Zero() + SimDuration::Millis(10),
                       [&] { outer = tracer.StartSpan({pid, 1}, "invocation"); });
  scheduler.ScheduleAt(SimTime::Zero() + SimDuration::Millis(12),
                       [&] { inner = tracer.StartSpan({pid, 1}, "restore.sandbox"); });
  scheduler.ScheduleAt(SimTime::Zero() + SimDuration::Millis(15),
                       [&] { tracer.EndSpan(inner); });
  scheduler.ScheduleAt(SimTime::Zero() + SimDuration::Millis(30),
                       [&] { tracer.EndSpan(outer); });
  scheduler.RunUntilIdle();

  const obs::Span* o = tracer.Find(outer);
  const obs::Span* i = tracer.Find(inner);
  ASSERT_NE(o, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(o->start, SimTime::Zero() + SimDuration::Millis(10));
  EXPECT_EQ(o->duration(), SimDuration::Millis(20));
  EXPECT_EQ(i->duration(), SimDuration::Millis(3));
  // Implicit parenting: inner opened while outer was the innermost open span
  // on the same (pid, track).
  EXPECT_EQ(i->parent, outer);
  EXPECT_EQ(o->parent, obs::kInvalidSpanId);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(TracerTest, TracksDoNotParentAcrossEachOther) {
  EventScheduler scheduler;
  obs::Tracer tracer;
  const obs::ProcessId pid = tracer.RegisterProcess("sim", [&] { return scheduler.now(); });
  const obs::SpanId a = tracer.StartSpan({pid, 1}, "a");
  const obs::SpanId b = tracer.StartSpan({pid, 2}, "b");  // different track
  EXPECT_EQ(tracer.Find(b)->parent, obs::kInvalidSpanId);
  tracer.EndSpan(b);
  tracer.EndSpan(a);
}

TEST(TracerTest, RecordSpanAtDoesNotTouchOpenStack) {
  EventScheduler scheduler;
  obs::Tracer tracer;
  const obs::ProcessId pid = tracer.RegisterProcess("sim", [&] { return scheduler.now(); });
  const obs::SpanId open = tracer.StartSpan({pid, 1}, "invocation");
  const obs::SpanId detail = tracer.RecordSpanAt({pid, 1}, "mmt.attach", "restore",
                                                 SimTime::Zero() + SimDuration::Millis(1),
                                                 SimDuration::Millis(2), open);
  // The recorded span is closed, parented explicitly, and did not become the
  // implicit parent of the next StartSpan.
  EXPECT_FALSE(tracer.Find(detail)->open);
  EXPECT_EQ(tracer.Find(detail)->parent, open);
  const obs::SpanId next = tracer.StartSpan({pid, 1}, "exec");
  EXPECT_EQ(tracer.Find(next)->parent, open);
  tracer.EndSpan(next);
  tracer.EndSpan(open);
}

TEST(TracerTest, AnnotationsRoundTrip) {
  obs::Tracer tracer;
  const obs::ProcessId pid = tracer.RegisterProcess("sim", [] { return SimTime::Zero(); });
  const obs::SpanId id = tracer.StartSpan({pid, 1}, "fault.touch");
  tracer.Annotate(id, "pages", static_cast<int64_t>(42));
  tracer.Annotate(id, "fetch_ms", 1.5);
  tracer.Annotate(id, "tier", std::string("cxl"));
  tracer.EndSpan(id);
  const obs::Span* span = tracer.Find(id);
  ASSERT_EQ(span->args.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(span->args[0].second), 42);
  EXPECT_DOUBLE_EQ(std::get<double>(span->args[1].second), 1.5);
  EXPECT_EQ(std::get<std::string>(span->args[2].second), "cxl");
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  tracer.set_enabled(false);
  const obs::ProcessId pid = tracer.RegisterProcess("sim", [] { return SimTime::Zero(); });
  const obs::SpanId a = tracer.StartSpan({pid, 1}, "invocation");
  EXPECT_EQ(a, obs::kInvalidSpanId);
  tracer.EndSpan(a);  // safe no-op
  EXPECT_EQ(tracer.RecordSpanAt({pid, 1}, "x", "", SimTime::Zero(), SimDuration::Millis(1)),
            obs::kInvalidSpanId);
  EXPECT_EQ(tracer.Instant({pid, 1}, "marker"), obs::kInvalidSpanId);
  tracer.Annotate(a, "k", static_cast<int64_t>(1));  // safe no-op
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, bools, null) used
// to verify the Chrome-trace exporter produces well-formed JSON.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, std::shared_ptr<JsonObject>,
               std::shared_ptr<JsonArray>>
      value;

  const JsonObject& object() const { return *std::get<std::shared_ptr<JsonObject>>(value); }
  const JsonArray& array() const { return *std::get<std::shared_ptr<JsonArray>>(value); }
  double number() const { return std::get<double>(value); }
  const std::string& str() const { return std::get<std::string>(value); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) { return ParseValue(out) && (SkipWs(), pos_ == text_.size()); }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) {
        return false;
      }
      out->value = s;
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->value = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->value = false;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->value = nullptr;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) {
      return false;
    }
    auto object = std::make_shared<JsonObject>();
    SkipWs();
    if (Consume('}')) {
      out->value = object;
      return true;
    }
    while (true) {
      std::string key;
      SkipWs();
      if (!ParseString(&key) || !Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      (*object)[key] = value;
      if (Consume(',')) {
        continue;
      }
      break;
    }
    if (!Consume('}')) {
      return false;
    }
    out->value = object;
    return true;
  }
  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) {
      return false;
    }
    auto array = std::make_shared<JsonArray>();
    SkipWs();
    if (Consume(']')) {
      out->value = array;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      array->push_back(value);
      if (Consume(',')) {
        continue;
      }
      break;
    }
    if (!Consume(']')) {
      return false;
    }
    out->value = array;
    return true;
  }
  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case 'u':
            // \uXXXX: the exporter only emits these for control characters;
            // skip the four hex digits and substitute a placeholder.
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            pos_ += 4;
            c = '?';
            break;
          default:
            c = esc;
        }
      }
      out->push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->value = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Exporters

TEST(ExportTest, ChromeTraceIsWellFormedJson) {
  EventScheduler scheduler;
  obs::Tracer tracer;
  obs::Registry registry;
  registry.GetCounter("faults.minor")->Add(3.0);
  registry.GetGauge("memory")->Set(2048.0);
  const obs::ProcessId pid = tracer.RegisterProcess("T-CXL", [&] { return scheduler.now(); });

  const obs::SpanId root = tracer.StartSpan({pid, 7}, "invocation", "invocation");
  tracer.Annotate(root, "function", std::string("JS \"quoted\"\n"));
  tracer.RecordSpanAt({pid, 7}, "mmt.attach", "restore", SimTime::Zero(),
                      SimDuration::Micros(250), root);
  tracer.Instant({pid, 7}, "warm.hit", "invocation");
  tracer.EndSpan(root);

  std::ostringstream out;
  obs::WriteChromeTrace(tracer, out, &registry);
  const std::string text = out.str();

  JsonValue doc;
  ASSERT_TRUE(JsonParser(text).Parse(&doc)) << text;
  const JsonObject& top = doc.object();
  ASSERT_TRUE(top.contains("traceEvents"));
  const JsonArray& events = top.at("traceEvents").array();
  // 1 process_name metadata + 3 spans + 2 counter samples.
  ASSERT_EQ(events.size(), 6u);

  std::map<std::string, int> by_phase;
  bool saw_attach = false;
  for (const JsonValue& event : events) {
    const JsonObject& e = event.object();
    by_phase[e.at("ph").str()] += 1;
    ASSERT_TRUE(e.contains("pid"));
    ASSERT_TRUE(e.contains("ts") || e.at("ph").str() == "M");
    if (e.contains("name") && e.at("name").str() == "mmt.attach") {
      saw_attach = true;
      EXPECT_EQ(e.at("ph").str(), "X");
      EXPECT_DOUBLE_EQ(e.at("dur").number(), 250.0);  // microseconds
      EXPECT_EQ(e.at("cat").str(), "restore");
    }
  }
  EXPECT_TRUE(saw_attach);
  EXPECT_EQ(by_phase["M"], 1);
  EXPECT_EQ(by_phase["X"], 2);  // invocation + mmt.attach
  EXPECT_EQ(by_phase["i"], 1);  // warm.hit
  EXPECT_EQ(by_phase["C"], 2);  // counter + gauge samples
}

TEST(ExportTest, PrometheusDumpSanitizesNames) {
  obs::Registry registry;
  registry.GetCounter("pool.rdma.fetch_pages")->Add(12.0);
  registry.GetGauge("memory.used")->Set(7.0);
  std::ostringstream out;
  obs::WritePrometheusText(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE pool_rdma_fetch_pages counter"), std::string::npos);
  EXPECT_NE(text.find("pool_rdma_fetch_pages 12"), std::string::npos);
  EXPECT_NE(text.find("memory_used 7"), std::string::npos);
  EXPECT_NE(text.find("memory_used_max 7"), std::string::npos);
  EXPECT_EQ(text.find('.'), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced platform run produces the expected span hierarchy.

TEST(ObsIntegrationTest, TracedInvocationDecomposesIntoPhases) {
  obs::Tracer tracer;
  PlatformConfig config;
  config.tracer = &tracer;
  Testbed bed(SystemKind::kTrEnvCxl, config);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  ASSERT_TRUE(bed.platform().Run(Schedule{{SimTime::Zero(), "JS"}}).ok());

  std::map<std::string, int> names;
  obs::SpanId root = obs::kInvalidSpanId;
  for (const obs::Span& span : tracer.spans()) {
    names[span.name] += 1;
    if (span.name == "invocation") {
      root = span.id;
    }
  }
  EXPECT_EQ(names["invocation"], 1);
  EXPECT_EQ(names["restore.sandbox"], 1);
  EXPECT_EQ(names["restore.process"], 1);
  EXPECT_EQ(names["restore.memory"], 1);
  EXPECT_EQ(names["exec"], 1);
  EXPECT_GE(names["mmt.attach"], 1);
  EXPECT_EQ(names["fault.touch"], 1);
  // All spans closed, and the phases nest under the invocation root.
  EXPECT_EQ(tracer.open_span_count(), 0u);
  for (const obs::Span& span : tracer.spans()) {
    EXPECT_FALSE(span.open) << span.name;
    if (span.name == "restore.sandbox" || span.name == "exec") {
      EXPECT_EQ(span.parent, root) << span.name;
    }
    EXPECT_GE(span.end, span.start) << span.name;
  }
  // Pool/mmt counters landed in the platform registry.
  const obs::Registry& stats = bed.platform().metrics().registry();
  ASSERT_NE(stats.FindCounter("mmt.attach_calls"), nullptr);
  EXPECT_GT(stats.FindCounter("mmt.attach_calls")->value(), 0.0);
}

TEST(ObsIntegrationTest, UntracedRunRecordsNoSpans) {
  obs::Tracer tracer;
  tracer.set_enabled(false);
  PlatformConfig config;
  config.tracer = &tracer;
  Testbed bed(SystemKind::kCriu, config);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  ASSERT_TRUE(bed.platform().Run(Schedule{{SimTime::Zero(), "JS"}}).ok());
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(ObsIntegrationTest, FetchCpuSecondsMigratedToRegistry) {
  Testbed bed(SystemKind::kTrEnvRdma);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  ASSERT_TRUE(bed.platform().Run(Schedule{{SimTime::Zero(), "JS"}}).ok());
  MetricsCollector& metrics = bed.platform().metrics();
  // The accessor reads through to the registry instrument.
  EXPECT_EQ(metrics.fetch_cpu_seconds(),
            metrics.registry().FindCounter("platform.fetch_cpu_seconds")->value());
  EXPECT_GT(metrics.fetch_cpu_seconds(), 0.0);
  metrics.Clear();
  EXPECT_EQ(metrics.fetch_cpu_seconds(), 0.0);
}

}  // namespace
}  // namespace trenv
