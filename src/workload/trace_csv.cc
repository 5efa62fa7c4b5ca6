#include "src/workload/trace_csv.h"

#include <fstream>
#include <map>
#include <sstream>

namespace trenv {

namespace {

// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s) {
  const size_t first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    return "";
  }
  const size_t last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

}  // namespace

Result<Schedule> LoadTraceCsv(std::istream& in, const TraceCsvOptions& options, Rng& rng) {
  Schedule schedule;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    // Optional header.
    if (line_no == 1 && trimmed.find("minute") != std::string::npos) {
      continue;
    }
    std::istringstream fields(trimmed);
    std::string minute_str;
    std::string function;
    std::string count_str;
    if (!std::getline(fields, minute_str, ',') || !std::getline(fields, function, ',') ||
        !std::getline(fields, count_str, ',')) {
      return Status::InvalidArgument("trace CSV line " + std::to_string(line_no) +
                                     ": expected minute,function,count");
    }
    uint64_t minute = 0;
    uint64_t count = 0;
    try {
      minute = std::stoull(Trim(minute_str));
      count = std::stoull(Trim(count_str));
    } catch (const std::exception&) {
      return Status::InvalidArgument("trace CSV line " + std::to_string(line_no) +
                                     ": non-numeric minute or count");
    }
    function = Trim(function);
    if (function.empty()) {
      return Status::InvalidArgument("trace CSV line " + std::to_string(line_no) +
                                     ": empty function name");
    }
    const FunctionId id = InternFunction(function);
    const bool bursty = rng.NextBool(options.burst_probability);
    for (uint64_t i = 0; i < count; ++i) {
      const double offset_s = bursty ? rng.NextUniform(0.0, options.burst_window_s)
                                     : rng.NextUniform(0.0, 60.0);
      schedule.push_back({SimTime::Zero() + SimDuration::FromSecondsF(
                              static_cast<double>(minute) * 60.0 + offset_s),
                          id});
    }
  }
  SortSchedule(schedule);
  return schedule;
}

Result<Schedule> LoadTraceCsvFile(const std::string& path, const TraceCsvOptions& options,
                                  Rng& rng) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  return LoadTraceCsv(in, options, rng);
}

void WriteTraceCsv(const Schedule& schedule, std::ostream& out) {
  // Aggregate to (minute, function name) -> count: rows go out in minute
  // order, then name order, never in id (interning) order.
  std::map<std::pair<uint64_t, std::string_view>, uint64_t> counts;
  for (const Invocation& invocation : schedule) {
    const auto minute = static_cast<uint64_t>(invocation.arrival.seconds() / 60.0);
    counts[{minute, FunctionName(invocation.function)}] += 1;
  }
  out << "minute,function,count\n";
  for (const auto& [key, count] : counts) {
    out << key.first << "," << key.second << "," << count << "\n";
  }
}

}  // namespace trenv
