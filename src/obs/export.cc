#include "src/obs/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace trenv {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void WriteAnnotationValue(const AnnotationValue& value, std::ostream& out) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    out << *i;
  } else if (const auto* d = std::get_if<double>(&value)) {
    out << FormatDouble(*d);
  } else {
    out << '"' << JsonEscape(std::get<std::string>(value)) << '"';
  }
}

void WriteArgs(const Span& span, std::ostream& out) {
  out << "{";
  bool first = true;
  for (const auto& [key, value] : span.args) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << '"' << JsonEscape(key) << "\":";
    WriteAnnotationValue(value, out);
  }
  if (span.open) {
    out << (first ? "" : ",") << "\"unfinished\":true";
  }
  out << "}";
}

double ToTraceUs(SimTime t) { return static_cast<double>(t.nanos()) / 1e3; }

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteChromeTrace(const Tracer& tracer, std::ostream& out, const Registry* registry) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n";
  };

  // Process-name metadata so the UI labels each system/platform.
  for (const auto& [pid, name] : tracer.process_names()) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":" << pid
        << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
  }

  SimTime last = SimTime::Zero();
  for (const Span& span : tracer.spans()) {
    sep();
    if (span.instant) {
      out << "{\"ph\":\"i\",\"s\":\"t\"";
    } else {
      out << "{\"ph\":\"X\",\"dur\":" << FormatDouble(ToTraceUs(span.end) - ToTraceUs(span.start));
    }
    out << ",\"pid\":" << span.loc.pid << ",\"tid\":" << span.loc.track
        << ",\"ts\":" << FormatDouble(ToTraceUs(span.start)) << ",\"name\":\""
        << JsonEscape(span.name) << "\"";
    if (!span.category.empty()) {
      out << ",\"cat\":\"" << JsonEscape(span.category) << "\"";
    }
    out << ",\"args\":";
    WriteArgs(span, out);
    out << "}";
    last = std::max(last, span.end);
  }

  // One end-of-run sample per instrument, as Chrome counter events.
  if (registry != nullptr) {
    for (const auto& [name, counter] : registry->counters()) {
      sep();
      out << "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" << FormatDouble(ToTraceUs(last))
          << ",\"name\":\"" << JsonEscape(name) << "\",\"args\":{\"value\":"
          << FormatDouble(counter->value()) << "}}";
    }
    for (const auto& [name, gauge] : registry->gauges()) {
      sep();
      out << "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" << FormatDouble(ToTraceUs(last))
          << ",\"name\":\"" << JsonEscape(name) << "\",\"args\":{\"value\":"
          << FormatDouble(gauge->value()) << ",\"max\":" << FormatDouble(gauge->max()) << "}}";
    }
  }
  out << "\n]}\n";
}

Status WriteChromeTraceFile(const Tracer& tracer, const std::string& path,
                            const Registry* registry) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  WriteChromeTrace(tracer, out, registry);
  return out.good() ? Status::Ok() : Status::Internal("write failed: " + path);
}

namespace {

std::string PrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace

void WritePrometheusText(const Registry& registry, std::ostream& out) {
  for (const auto& [name, counter] : registry.counters()) {
    const std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " counter\n";
    out << prom << " " << FormatDouble(counter->value()) << "\n";
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    const std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " gauge\n";
    out << prom << " " << FormatDouble(gauge->value()) << "\n";
    out << "# TYPE " << prom << "_max gauge\n";
    out << prom << "_max " << FormatDouble(gauge->max()) << "\n";
  }
}

Status WritePrometheusFile(const Registry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open metrics output file: " + path);
  }
  WritePrometheusText(registry, out);
  return out.good() ? Status::Ok() : Status::Internal("write failed: " + path);
}

}  // namespace obs
}  // namespace trenv
