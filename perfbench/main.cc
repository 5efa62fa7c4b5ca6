// perfbench: runs one benchmark workload repeatedly for a fixed host-time
// budget, checks every run, and prints one JSON line with the medians.
//
//   perfbench --workload <dense_catalog|rack_burst|rack_chaos> --seed <n>
//             --seconds <s> --trace <0|1> [--small] [--trace-out <file>]
//
// One run covers a fixed number of sub-traces per workload, each generated
// from its own seed derived from --seed, so a run's virtual-clock numbers
// rest on several independent traces instead of one. Each repetition builds
// the simulator from scratch (set-up), runs one sub-trace and drains it.
// After one unmeasured warm-up repetition, repetitions cycle through the
// sub-traces for about --seconds of host time (at least one pass). With
// --trace 1 every untraced repetition is followed by a traced one of the
// same sub-trace (spans around the calls into each layer); per-layer numbers
// come from the traced runs and the tracing overhead from comparing the two.
//
// Reported numbers: virtual-clock metrics are the median over sub-traces;
// host-clock metrics the median over sub-traces of each one's median over
// its repetitions, in calibrated process CPU seconds (time other processes
// held the CPUs is left out, and the reference kernel of reference.h, run
// between repetitions, scales out the machine's slow phases); peak RSS is
// the process's.
//
// Checks (exit 1, no JSON, on any failure): every run succeeds and closes
// its ledger (accepted = completed + failed, nothing in flight), the
// workload's own checks hold, and every repetition of a sub-trace, traced
// or not, produces the same simulated digest.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/reference.h"
#include "perfbench/span_log.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  return true;
}

// Seed of sub-trace `index` of a run (splitmix64 of the pair).
uint64_t SubtraceSeed(uint64_t seed, uint32_t index) {
  uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2);
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    out += (out.size() == 1 ? "\"" : ",\"") + name + "\":" + Num(value);
  }
  return out + "}";
}

// Empty when the run is correct; otherwise what went wrong.
std::string CheckRun(const RunResult& r) {
  if (!r.ok) {
    return r.error;
  }
  if (r.accepted != r.completed + r.failed) {
    return "ledger does not close: accepted " + std::to_string(r.accepted) + " != completed " +
           std::to_string(r.completed) + " + failed " + std::to_string(r.failed);
  }
  return "";
}

int Main(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : AllWorkloads()) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  const uint32_t subtraces = workload->subtraces;
  RunOptions options;
  options.small = args.small;
  // One shard for the end-to-end runs, two in a traced process (untraced and
  // traced repetitions alike, so obs.bench_trace_overhead compares equal
  // shard counts). Untraced digests of the two kinds of process must agree.
  options.shards = args.trace ? 2 : 1;
  // untraced[i] and traced[i] hold the measured repetitions of sub-trace i.
  std::vector<std::vector<RunResult>> untraced(subtraces);
  std::vector<std::vector<RunResult>> traced(subtraces);
  std::vector<std::string> digests(subtraces);  // per sub-trace, from its first run
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SpanLog last_spans;
  // The reference kernel runs once to warm up, then before the first
  // repetition and after every one.
  RunReferenceKernel();
  double reference_before_s = RunReferenceKernel();
  std::vector<double> references_s = {reference_before_s};
  const auto run_checked = [&](uint32_t subtrace, SpanLog* spans, RunResult& r) {
    options.seed = SubtraceSeed(args.seed, subtrace);
    options.spans = spans;
    r = workload->run(options);
    // Hand the finished run's freed heap back to the kernel, so the peak RSS
    // is the largest single repetition, not what the allocator kept around.
    malloc_trim(0);
    const double reference_after_s = RunReferenceKernel();
    const double reference_s = (reference_before_s + reference_after_s) / 2;
    reference_before_s = reference_after_s;
    references_s.push_back(reference_after_s);
    std::cerr << workload->name << " sub-trace " << subtrace << (spans ? " traced" : "")
              << ": setup " << r.setup_s << " s, run " << r.run_s << " s cpu / " << r.run_wall_s
              << " s wall, reference " << reference_s << " s, " << r.completed
              << " invocations, digest " << r.digest << "\n";
    // From here on setup_s and run_s are calibrated: scaled by how much
    // faster the reference kernel ran around this repetition than nominal.
    const double speed = kReferenceNominalS / reference_s;
    r.setup_s *= speed;
    r.run_s *= speed;
    const std::string problem = CheckRun(r);
    if (!problem.empty()) {
      std::cerr << "FAIL: " << workload->name << ": " << problem << "\n";
      return false;
    }
    if (digests[subtrace].empty()) {
      digests[subtrace] = r.digest;
    } else if (r.digest != digests[subtrace]) {
      std::cerr << "FAIL: " << workload->name << " sub-trace " << subtrace << ": digest "
                << r.digest << " differs from its first run's " << digests[subtrace]
                << " (same seed, same inputs)\n";
      return false;
    }
    if (spans == nullptr) {
      attempted += r.accepted;
      failed += r.failed;
    }
    return true;
  };

  const int64_t start = HostNowNs();
  // Warm-up: one repetition of sub-trace 0 that is checked but not measured.
  // The process's first run grows the heap and fills the dedup store's
  // fingerprint memo, and runs 10-30% slower than the rest.
  RunResult warmup;
  if (!run_checked(0, nullptr, warmup)) {
    return 1;
  }
  // Measured repetitions cycle over the sub-traces: one full pass, then more
  // while a repetition as long as the last still ends within --seconds.
  uint32_t measured = 0;
  for (uint32_t subtrace = 0;; subtrace = (subtrace + 1) % subtraces) {
    const int64_t rep_start = HostNowNs();
    untraced[subtrace].emplace_back();
    if (!run_checked(subtrace, nullptr, untraced[subtrace].back())) {
      return 1;
    }
    if (args.trace) {
      last_spans = SpanLog();
      traced[subtrace].emplace_back();
      if (!run_checked(subtrace, &last_spans, traced[subtrace].back())) {
        return 1;
      }
    }
    ++measured;
    const int64_t now = HostNowNs();
    const double elapsed_s = static_cast<double>(now - start) / 1e9;
    const double rep_s = static_cast<double>(now - rep_start) / 1e9;
    if (measured >= subtraces && elapsed_s + rep_s > args.seconds) {
      break;
    }
  }

  // Host clock: the median over each sub-trace's repetitions, then the
  // median over sub-traces, so every sub-trace weighs the same however many
  // times it ran. Virtual clock: the median over sub-traces (each
  // one's numbers repeat exactly, per the digest check).
  const auto median_of = [](const std::vector<RunResult>& reps, auto field) {
    std::vector<double> values;
    for (const RunResult& r : reps) {
      values.push_back(field(r));
    }
    return Median(values);
  };
  const auto host_median = [&](auto field) {
    std::vector<double> per_subtrace;
    for (const std::vector<RunResult>& reps : untraced) {
      per_subtrace.push_back(median_of(reps, field));
    }
    return Median(per_subtrace);
  };
  const auto over_subtraces = [&](auto field) {
    std::vector<double> values;
    for (const std::vector<RunResult>& reps : untraced) {
      values.push_back(field(reps.front()));
    }
    return Median(values);
  };
  uint64_t e2e_samples = untraced.front().front().e2e_samples;
  for (const std::vector<RunResult>& reps : untraced) {
    e2e_samples = std::min(e2e_samples, reps.front().e2e_samples);
  }
  const auto run_s = [](const RunResult& r) { return r.run_s; };
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::map<std::string, double> end_to_end = {
      {"sim_inv_per_s", host_median([](const RunResult& r) {
         return static_cast<double>(r.completed) / r.run_s;
       })},
      {"setup_s", host_median([](const RunResult& r) { return r.setup_s; })},
      {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0},
      {"e2e_p50_ms", over_subtraces([](const RunResult& r) { return r.e2e_p50_ms; })},
      {"e2e_p99_ms", over_subtraces([](const RunResult& r) { return r.e2e_p99_ms; })},
      {"startup_p99_ms", over_subtraces([](const RunResult& r) { return r.startup_p99_ms; })},
      {"sim_peak_mem_gib", over_subtraces([](const RunResult& r) {
         return r.sim_peak_mem_bytes / (1024.0 * 1024.0 * 1024.0);
       })},
      {"warm_envs_peak",
       over_subtraces([](const RunResult& r) { return static_cast<double>(r.warm_envs_peak); })},
      {"failed_frac", static_cast<double>(failed) / static_cast<double>(attempted)},
  };

  std::string digest_list;
  for (const std::string& d : digests) {
    digest_list += (digest_list.empty() ? "\"" : ",\"") + d + "\"";
  }
  std::string json = "{\"workload\":\"" + std::string(workload->name) +
                     "\",\"seed\":" + std::to_string(args.seed) +
                     ",\"subtraces\":" + std::to_string(subtraces) +
                     ",\"reps\":" + std::to_string(measured) +
                     ",\"reference_s\":" + Num(Median(references_s)) +
                     ",\"correct\":true,\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"digests\":[" + digest_list +
                     "],\"e2e_samples\":" + std::to_string(e2e_samples) +
                     ",\"end_to_end\":" + JsonObject(end_to_end);
  if (args.trace) {
    // Per layer: like the end-to-end metrics, the median over sub-traces of
    // each sub-trace's median over its traced repetitions.
    std::map<std::string, std::vector<double>> per_subtrace;
    std::vector<double> overhead;
    for (uint32_t i = 0; i < subtraces; ++i) {
      std::map<std::string, std::vector<double>> samples;
      for (const RunResult& r : traced[i]) {
        for (const auto& [name, value] : r.layer) {
          samples[name].push_back(value);
        }
        samples["sim.events_per_inv"].push_back(static_cast<double>(r.sim_events) /
                                                static_cast<double>(r.completed));
      }
      for (const auto& [name, values] : samples) {
        per_subtrace[name].push_back(Median(values));
      }
      overhead.push_back(median_of(traced[i], run_s) / median_of(untraced[i], run_s) - 1.0);
    }
    std::map<std::string, double> layer;
    for (const auto& [name, values] : per_subtrace) {
      layer[name] = Median(values);
    }
    layer["obs.bench_trace_overhead"] = Median(overhead);
    json += ",\"per_layer\":" + JsonObject(layer) +
            ",\"spans_recorded\":" + std::to_string(last_spans.recorded()) +
            ",\"spans_dropped\":" + std::to_string(last_spans.dropped());
    if (!args.trace_out.empty() && !last_spans.WriteChromeTrace(args.trace_out)) {
      std::cerr << "FAIL: could not write spans to " << args.trace_out << "\n";
      return 1;
    }
  }
  std::cout << json << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    return 2;
  }
  return perfbench::Main(args);
}
