#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/common/histogram.h"
#include "src/fault/fault_schedule.h"
#include "src/platform/cluster.h"
#include "src/platform/testbed.h"
#include "src/workload/arrival.h"
#include "src/workload/arrival_stream.h"

namespace perfbench {
namespace {

using trenv::Cluster;
using trenv::ClusterConfig;
using trenv::FaultSchedule;
using trenv::FunctionMetrics;
using trenv::FunctionProfile;
using trenv::Histogram;
using trenv::Invocation;
using trenv::PlatformConfig;
using trenv::Rng;
using trenv::Schedule;
using trenv::ServerlessPlatform;
using trenv::SimDuration;
using trenv::SimTime;
using trenv::Status;

SimTime At(double seconds) { return SimTime::Zero() + SimDuration::FromSecondsF(seconds); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Table-4 profiles cloned round-robin under unique tenant names ("f0017-JS").
// Each clone keeps its own runtime state but declares its image identical to
// the base function (content_tag), so the dedup store keeps ten images.
std::vector<FunctionProfile> CloneCatalog(uint32_t count) {
  const std::vector<FunctionProfile> base = trenv::Table4Functions();
  std::vector<FunctionProfile> catalog;
  catalog.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FunctionProfile profile = base[i % base.size()];
    char tag[16];
    std::snprintf(tag, sizeof(tag), "f%04u-", i);
    profile.content_tag = profile.name;
    profile.name = tag + profile.name;
    catalog.push_back(std::move(profile));
  }
  return catalog;
}

std::vector<std::string> NamesOf(const std::vector<FunctionProfile>& catalog) {
  std::vector<std::string> names;
  names.reserve(catalog.size());
  for (const FunctionProfile& profile : catalog) {
    names.push_back(profile.name);
  }
  return names;
}

// FNV-1a over the full-precision fingerprint text.
std::string Digest(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

void FingerprintHistogram(std::ostream& out, const char* label, const Histogram& h) {
  out << ' ' << label << ":n=" << h.count();
  if (!h.empty()) {
    out << ",min=" << h.Min() << ",max=" << h.Max() << ",mean=" << h.Mean()
        << ",p50=" << h.Median() << ",p99=" << h.P99();
  }
}

void FingerprintCounters(std::ostream& out, const trenv::obs::Registry& registry) {
  for (const auto& [name, counter] : registry.counters()) {
    out << "ctr " << name << '=' << counter->value() << '\n';
  }
}

void FingerprintPlatform(std::ostream& out, ServerlessPlatform& node) {
  out << "failed=" << node.failed_invocations() << " frames_peak=" << node.frames().peak_used_bytes()
      << " mem_peak=" << node.metrics().peak_memory_bytes()
      << " parked_peak=" << node.keep_alive().peak_size()
      << " events=" << node.scheduler().executed_count() << '\n';
  for (const auto& [fn, m] : node.metrics().per_function()) {
    out << "fn " << fn << " inv=" << m.invocations << " warm=" << m.warm_starts
        << " cold=" << m.cold_starts << " rep=" << m.repurposed_starts;
    FingerprintHistogram(out, "e2e", m.e2e_ms);
    FingerprintHistogram(out, "startup", m.startup_ms);
    out << '\n';
  }
  FingerprintCounters(out, node.metrics().registry());
}

// Registry counters reported per layer: benchmark name <- registry name.
constexpr std::pair<const char*, const char*> kLayerCounters[] = {
    {"simkernel.faults_cow", "faults.cow"},
    {"simkernel.faults_major", "faults.major"},
    {"simkernel.fetch_bytes", "fetch.bytes"},
    {"simkernel.reads_direct_remote", "reads.direct_remote"},
    {"mmt.attach_calls", "mmt.attach_calls"},
    {"mmt.attached_pages", "mmt.attached_pages"},
    {"mempool.cxl_fetch_pages", "pool.cxl-mhd.fetch_pages"},
    {"density.demotions", "density.demotions"},
    {"density.promotions", "density.promotions"},
    {"density.promoted_pages", "density.promoted_pages"},
    {"density.pressure_storms", "density.pressure_storms"},
};

void AddLayerCounters(const trenv::obs::Registry& registry, RunResult& r) {
  for (const auto& [metric, counter] : kLayerCounters) {
    if (const trenv::obs::Counter* c = registry.FindCounter(counter); c != nullptr) {
      r.layer[metric] += c->value();
    }
  }
}

// Ledger, virtual-clock results and platform-layer counts over the nodes a
// run used. e2e comes from the platforms' own histograms, timed from each
// invocation's arrival event on the node that ran it.
void CollectPlatforms(const std::vector<ServerlessPlatform*>& nodes, RunResult& r) {
  FunctionMetrics total;
  uint64_t parked_max = 0;
  for (ServerlessPlatform* node : nodes) {
    const FunctionMetrics agg = node->metrics().Aggregate();
    total.e2e_ms.MergeFrom(agg.e2e_ms);
    total.startup_ms.MergeFrom(agg.startup_ms);
    total.invocations += agg.invocations;
    total.warm_starts += agg.warm_starts;
    total.repurposed_starts += agg.repurposed_starts;
    total.cold_starts += agg.cold_starts;
    r.failed += node->failed_invocations();
    r.sim_peak_mem_bytes += static_cast<double>(node->metrics().peak_memory_bytes());
    r.warm_envs_peak += node->keep_alive().peak_size();
    parked_max = std::max<uint64_t>(parked_max, node->keep_alive().peak_size());
    r.sim_events += node->scheduler().executed_count();
    AddLayerCounters(node->metrics().registry(), r);
  }
  r.completed = total.invocations;
  r.e2e_samples = total.e2e_ms.count();
  r.e2e_p50_ms = total.e2e_ms.Median();
  r.e2e_p99_ms = total.e2e_ms.P99();
  r.startup_p99_ms = total.startup_ms.P99();
  const double starts = static_cast<double>(total.warm_starts + total.repurposed_starts +
                                            total.cold_starts);
  r.layer["platform.starts_warm"] = static_cast<double>(total.warm_starts);
  r.layer["platform.starts_repurposed"] = static_cast<double>(total.repurposed_starts);
  r.layer["platform.starts_cold"] = static_cast<double>(total.cold_starts);
  r.layer["platform.warm_hit_ratio"] = Ratio(static_cast<double>(total.warm_starts), starts);
  r.layer["platform.keepalive_peak_parked"] = static_cast<double>(parked_max);
}

// Host time and simulated events per tenth of the trace's virtual span:
// drain_growth is the last tenth's host ns/event over the first tenth's, so a
// cost that grows with simulated state (e.g. a scan over parked envs) shows.
class GrowthMeter {
 public:
  GrowthMeter(SimTime end, uint64_t events_now)
      : end_(end), last_ns_(HostNowNs()), last_events_(events_now) {}

  // Attributes host time and events since the previous sample to the tenth
  // of the trace that `t` falls in. Samples at most once per 1% of the trace.
  void Sample(SimTime t, uint64_t events_now, bool force = false) {
    if (!force && t < next_) {
      return;
    }
    next_ = t + SimDuration((end_ - SimTime::Zero()).nanos() / 100);
    const int64_t now = HostNowNs();
    const size_t tenth = std::min<size_t>(
        9, static_cast<size_t>(std::max(0.0, 10.0 * t.seconds() / end_.seconds())));
    ns_[tenth] += static_cast<double>(now - last_ns_);
    events_[tenth] += static_cast<double>(events_now - last_events_);
    last_ns_ = now;
    last_events_ = events_now;
  }

  double Growth() const {
    return Ratio(Ratio(ns_[9], events_[9]), Ratio(ns_[0], events_[0]));
  }

 private:
  SimTime end_;
  SimTime next_;
  int64_t last_ns_;
  uint64_t last_events_;
  double ns_[10] = {};
  double events_[10] = {};
};

uint64_t ClusterEvents(Cluster& cluster) {
  uint64_t events = 0;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    events += cluster.node(i).scheduler().executed_count();
  }
  if (cluster.pool_manager() != nullptr) {
    events += cluster.pool_manager()->clock().executed_count();
  }
  return events;
}

std::vector<ServerlessPlatform*> ClusterNodes(Cluster& cluster) {
  std::vector<ServerlessPlatform*> nodes;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    nodes.push_back(&cluster.node(i));
  }
  return nodes;
}

// Rack-level collection shared by both rack workloads: pool bytes join the
// node peaks, the shared device's counters join the layer counts.
std::string CollectCluster(Cluster& cluster, RunResult& r) {
  CollectPlatforms(ClusterNodes(cluster), r);
  AddLayerCounters(cluster.registry(), r);
  r.accepted = cluster.accepted_invocations();
  r.sim_peak_mem_bytes += static_cast<double>(cluster.PoolBytes());
  r.sim_events = ClusterEvents(cluster);
  const trenv::SnapshotDedupStore& dedup = cluster.dedup();
  r.layer["criu.dedup_ratio"] = Ratio(static_cast<double>(dedup.total_ingested_pages()),
                                      static_cast<double>(dedup.stored_unique_pages()));
  std::ostringstream out;
  out << std::setprecision(17) << "accepted=" << cluster.accepted_invocations() << '\n';
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    out << "node " << i << ' ';
    FingerprintPlatform(out, cluster.node(i));
  }
  out << "pool=" << cluster.PoolBytes() << " dram=" << cluster.NodeDramBytes() << '\n';
  FingerprintCounters(out, cluster.registry());
  return out.str();
}

// Fills the layer numbers every workload reports from its spans.
void CollectHostLayers(const SpanLog& spans, double arrivals, double functions,
                       RunResult& r) {
  r.layer["criu.deploy_ms_per_fn"] =
      Ratio(static_cast<double>(spans.totals("criu.deploy").total_ns) / 1e6, functions);
  const SpanLog::Totals submit = spans.totals("platform.submit");
  r.layer["platform.submit_ns"] =
      Ratio(static_cast<double>(submit.total_ns), static_cast<double>(submit.count));
  const double gen_ns = static_cast<double>(spans.totals("workload.generate").total_ns +
                                            spans.totals("workload.next").total_ns);
  r.layer["workload.gen_ns_per_arrival"] = Ratio(gen_ns, arrivals);
}

// ------------------------------------------------------------ dense_catalog
//
// One T-CXL node with density tiering over a large cloned catalog and a W2
// diurnal trace: the keep-alive pool, the density loop, the block allocator
// and catalog-wide Zipf sampling do the work. The system is peak_density's
// density row; the trace is lighter (peak 3/s, clumps of 8 instead of 8/s and
// 16) because at that load the node saturates and its tail latencies and
// peak memory move by tens of percent from one trace to the next.

struct DenseParams {
  uint32_t functions;
  double minutes;
};

RunResult RunDenseCatalog(const RunOptions& opt) {
  const DenseParams p = opt.small ? DenseParams{256, 3} : DenseParams{8192, 30};
  SpanLog* spans = opt.spans;
  RunResult r;
  const Stopwatch setup_clock;

  PlatformConfig config;
  config.seed = opt.seed;
  config.soft_mem_cap_bytes = 2 * trenv::kGiB;
  // Warmth is bounded by memory, not the clock: the TTL outlives the trace.
  config.keep_alive_ttl =
      SimDuration::FromSecondsF(p.minutes * 60) + SimDuration::Minutes(10);
  config.density.enabled = true;
  config.density.sweep_interval = SimDuration::Seconds(5);
  config.density.demote_hot_after = SimDuration::Seconds(15);
  config.density.demote_warm_after = SimDuration::Minutes(8);
  config.density.overcommit_factor = 16.0;
  std::optional<trenv::Testbed> bed;
  {
    Span span(spans, "testbed.build");
    bed.emplace(trenv::SystemKind::kTrEnvCxl, config);
  }
  const std::vector<FunctionProfile> catalog = CloneCatalog(p.functions);
  for (const FunctionProfile& profile : catalog) {
    Span span(spans, "criu.deploy");
    bed->sandbox_pool().RegisterFunctionLayer(
        profile.name, std::make_shared<trenv::FsLayer>(profile.name + "-deps"));
    if (const Status s = bed->platform().Deploy(profile); !s.ok()) {
      r.error = "deploy " + profile.name + ": " + s.ToString();
      return r;
    }
  }
  Schedule schedule;
  {
    Span span(spans, "workload.generate");
    Rng rng(opt.seed);
    trenv::DiurnalOptions options;
    options.duration = SimDuration::FromSecondsF(p.minutes * 60);
    options.peak_rate_per_sec = 3.0;
    options.trough_rate_per_sec = 3.0 / 8;
    options.cycles = 2;
    options.function_skew = 0.3;
    options.clump_probability = 0.3;
    options.clump_size = 8;
    schedule = trenv::MakeDiurnalWorkload(NamesOf(catalog), options, rng);
  }
  r.setup_s = setup_clock.CpuSeconds();

  ServerlessPlatform& platform = bed->platform();
  const Stopwatch run_clock;
  if (spans == nullptr) {
    if (const Status s = platform.Run(schedule); !s.ok()) {
      r.error = "run: " + s.ToString();
      return r;
    }
  } else {
    // Platform::Run's body through the public API: submit the whole trace,
    // then drain in RunUntil slices so host time is attributed per tenth.
    for (const Invocation& invocation : schedule) {
      Span span(spans, "platform.submit");
      if (const Status s = platform.Submit(invocation.arrival, invocation.function); !s.ok()) {
        r.error = "submit: " + s.ToString();
        return r;
      }
    }
    const SimTime end = At(p.minutes * 60);
    GrowthMeter meter(end, platform.scheduler().executed_count());
    constexpr int kSlices = 100;
    for (int k = 1; k <= kSlices; ++k) {
      const SimTime t = SimTime::Zero() + SimDuration((end - SimTime::Zero()).nanos() / kSlices * k);
      {
        Span span(spans, "sim.run_until");
        platform.scheduler().RunUntil(t);
      }
      meter.Sample(t, platform.scheduler().executed_count(), /*force=*/true);
    }
    {
      Span span(spans, "sim.drain");
      platform.RunToCompletion();
    }
    meter.Sample(end, platform.scheduler().executed_count(), /*force=*/true);
    r.layer["platform.drain_growth"] = meter.Growth();
  }
  r.run_s = run_clock.CpuSeconds();
  r.run_wall_s = run_clock.WallSeconds();

  r.accepted = schedule.size();
  CollectPlatforms({&platform}, r);
  const trenv::DensityManager& density = platform.density();
  const char* tier_names[] = {"density.tier_peak_dram_hot", "density.tier_peak_cxl_warm",
                              "density.tier_peak_nas_cold"};
  for (size_t t = 0; t < trenv::kDensityTierCount; ++t) {
    r.layer[tier_names[t]] =
        density.tier_timeline(static_cast<trenv::DensityTier>(t)).peak();
  }
  r.layer["density.attach_p99_ms"] = density.attach_ms().empty() ? 0 : density.attach_ms().P99();
  if (const trenv::SnapshotDedupStore* dedup = bed->dedup(); dedup != nullptr) {
    r.layer["criu.dedup_ratio"] = Ratio(static_cast<double>(dedup->total_ingested_pages()),
                                        static_cast<double>(dedup->stored_unique_pages()));
  }
  if (spans != nullptr) {
    CollectHostLayers(*spans, static_cast<double>(schedule.size()), p.functions, r);
    const double drain_ns = static_cast<double>(spans->totals("sim.run_until").total_ns +
                                                spans->totals("sim.drain").total_ns);
    r.layer["sim.drain_ns_per_event"] = Ratio(drain_ns, static_cast<double>(r.sim_events));
  }

  std::ostringstream out;
  out << std::setprecision(17) << "accepted=" << r.accepted << '\n';
  FingerprintPlatform(out, platform);
  out << "density demotions=" << density.demotions() << " promotions=" << density.promotions();
  FingerprintHistogram(out, "attach", density.attach_ms());
  r.digest = Digest(out.str());
  r.ok = true;
  return r;
}

// --------------------------------------------------------------- rack_burst
//
// Eight T-CXL nodes, five functions, a streamed Poisson trace through
// Cluster::RunSharded: the event core, the epoch coordinator and the
// repurpose/attach restore path do the work.

// Times each pull from the arrival stream and samples the growth meter; the
// stream is pulled on the coordinator thread between epochs.
class TimedStream final : public trenv::ArrivalStream {
 public:
  TimedStream(trenv::ArrivalStream* inner, SpanLog* spans, GrowthMeter* meter,
              Cluster* cluster)
      : inner_(inner), spans_(spans), meter_(meter), cluster_(cluster) {}

  std::optional<Invocation> Next() override {
    std::optional<Invocation> next;
    {
      Span span(spans_, "workload.next");
      next = inner_->Next();
    }
    if (next.has_value()) {
      meter_->Sample(next->arrival, ClusterEvents(*cluster_));
    }
    return next;
  }

 private:
  trenv::ArrivalStream* inner_;
  SpanLog* spans_;
  GrowthMeter* meter_;
  Cluster* cluster_;
};

RunResult RunRackBurst(const RunOptions& opt) {
  const double invocations = opt.small ? 20000 : 400000;
  constexpr double kRate = 400;
  const SimDuration duration = SimDuration::FromSecondsF(invocations / kRate);
  const std::vector<std::string> names = {"JS", "DH", "IR", "CR", "PR"};
  RunResult r;

  ClusterConfig config;
  config.nodes = 8;
  config.node_config.seed = opt.seed;
  config.node_config.keep_alive_ttl = SimDuration::Millis(100);
  // Set-up takes about a millisecond here, too short to time once: the rack
  // is built and deployed kSetupRounds times and setup_s is the median round.
  // The last round's rack runs the trace, and only it records spans.
  constexpr int kSetupRounds = 16;
  std::vector<double> rounds_s;
  std::optional<Cluster> cluster;
  for (int round = 0; round < kSetupRounds; ++round) {
    SpanLog* spans = round + 1 == kSetupRounds ? opt.spans : nullptr;
    cluster.reset();
    const Stopwatch setup_clock;
    {
      Span span(spans, "cluster.build");
      cluster.emplace(config);
    }
    for (const FunctionProfile& profile : trenv::Table4Functions()) {
      if (std::find(names.begin(), names.end(), profile.name) == names.end()) {
        continue;
      }
      Span span(spans, "criu.deploy");
      if (const Status s = cluster->Deploy(profile); !s.ok()) {
        r.error = "deploy " + profile.name + ": " + s.ToString();
        return r;
      }
    }
    rounds_s.push_back(setup_clock.CpuSeconds());
  }
  std::nth_element(rounds_s.begin(), rounds_s.begin() + kSetupRounds / 2, rounds_s.end());
  r.setup_s = rounds_s[kSetupRounds / 2];
  SpanLog* spans = opt.spans;
  Rng rng(opt.seed);
  trenv::PoissonArrivalStream poisson(names, kRate, duration, 0.7, &rng);

  trenv::ShardedRunOptions options;
  options.shards = opt.shards;
  options.lookahead = SimDuration::Millis(20);
  GrowthMeter meter(SimTime::Zero() + duration, 0);
  TimedStream timed(&poisson, spans, &meter, &*cluster);
  trenv::ArrivalStream& stream = spans != nullptr ? static_cast<trenv::ArrivalStream&>(timed)
                                                  : poisson;
  const Stopwatch run_clock;
  if (const Status s = cluster->RunSharded(stream, options); !s.ok()) {
    r.error = "run: " + s.ToString();
    return r;
  }
  r.run_s = run_clock.CpuSeconds();
  r.run_wall_s = run_clock.WallSeconds();

  const std::string text = CollectCluster(*cluster, r);
  const double epochs = static_cast<double>(cluster->sharded_epochs());
  r.layer["sim.shard_epochs"] = epochs;
  r.layer["sim.arrivals_per_epoch"] = Ratio(static_cast<double>(r.accepted), epochs);
  if (spans != nullptr) {
    CollectHostLayers(*spans, static_cast<double>(r.accepted), names.size(), r);
    meter.Sample(SimTime::Zero() + duration, ClusterEvents(*cluster), /*force=*/true);
    r.layer["platform.drain_growth"] = meter.Growth();
    // The drain runs inside RunSharded: its host time is the run minus the
    // stream pulls timed above.
    const double drain_ns =
        r.run_wall_s * 1e9 - static_cast<double>(spans->totals("workload.next").total_ns);
    r.layer["sim.drain_ns_per_event"] = Ratio(drain_ns, static_cast<double>(r.sim_events));
    r.layer["sim.shard_barrier_frac"] =
        Ratio(cluster->sharded_barrier_wait_seconds(), r.run_wall_s);
  }
  r.digest = Digest(text);
  r.ok = true;
  return r;
}

// --------------------------------------------------------------- rack_chaos
//
// Eight workers over a 16-node template pool (poolmgr, replication 2) under
// the continuous control plane, with template-locality dispatch and a fault
// plan that repeats every two minutes. The run replays Cluster::Run's loop
// through the public hooks, so the calls into each layer can be timed
// and every invocation can also be timed from when it was due.

struct ChaosParams {
  uint32_t functions;
  double minutes;
};

FaultSchedule ChaosFaults(double seconds, uint64_t seed) {
  FaultSchedule faults;
  faults.seed = seed ^ 0xfa17;
  constexpr uint32_t kPoolNodes = 16;
  constexpr uint32_t kWorkers = 8;
  uint32_t cycle = 0;
  for (double start = 0; start < seconds; start += 120, ++cycle) {
    // Rolling restarts: every 4th pool node, 3 s apart, each down 15 s.
    uint32_t wave = 0;
    for (uint32_t node = 0; node < kPoolNodes; node += 4, ++wave) {
      const SimTime at = At(start + 10 + 3.0 * wave);
      faults.Add(trenv::PoolCrashWindow(at, at + SimDuration::Seconds(1), 1.0, node,
                                        SimDuration::Seconds(15)));
    }
    // An RDMA flap storm that eats heartbeats and fails fetch attempts.
    faults.Add(trenv::LinkFaultWindow(trenv::FaultDomain::kRdmaFlap, At(start + 30),
                                      At(start + 34), 0.7));
    // One worker crash per cycle, rotating over the rack, back after 10 s.
    faults.Add(trenv::NodeCrashWindow(At(start + 60), At(start + 61), 1.0, cycle % kWorkers,
                                      SimDuration::Seconds(10)));
  }
  // Pool node 1 (outside the rolling wave) goes down for good at 70 s.
  faults.Add(trenv::PoolCrashWindow(At(70), At(71), 1.0, 1, SimDuration::Zero()));
  return faults;
}

// Cluster::Run's loop through the public hooks. `e2e` and `completed` are
// fed by completion callbacks, timed from each invocation's due time.
Status DriveCluster(Cluster& cluster, const Schedule& schedule, SpanLog* spans,
                    GrowthMeter* meter, Histogram* e2e, uint64_t* completed) {
  std::vector<trenv::FaultInjector::NodeEvent> plan;
  {
    Span span(spans, "fault.plan");
    plan = cluster.PlanFaultEvents();
  }
  size_t next_event = 0;
  const auto apply_events_until = [&](std::optional<SimTime> limit) {
    while (next_event < plan.size() && (!limit || plan[next_event].time <= *limit)) {
      {
        Span span(spans, "sim.advance");
        cluster.AdvanceClocksTo(plan[next_event].time);
      }
      Span span(spans, "fault.apply");
      cluster.ApplyFaultEvent(plan[next_event]);
      ++next_event;
    }
  };
  for (const Invocation& invocation : schedule) {
    apply_events_until(invocation.arrival);
    {
      Span span(spans, "sim.advance");
      cluster.AdvanceClocksTo(invocation.arrival);
    }
    Cluster::SubmitOptions options;
    options.on_complete = [e2e, completed, due = invocation.arrival](uint32_t, SimTime when) {
      e2e->Record((when - due).millis());
      ++*completed;
    };
    Status status;
    {
      Span span(spans, "platform.submit");
      status = cluster.Submit(invocation.arrival, invocation.function, std::move(options));
    }
    TRENV_RETURN_IF_ERROR(status);
    if (meter != nullptr) {
      meter->Sample(invocation.arrival, ClusterEvents(cluster));
    }
  }
  apply_events_until(std::nullopt);
  Span span(spans, "sim.drain");
  cluster.DrainAll();
  return Status::Ok();
}

RunResult RunRackChaos(const RunOptions& opt) {
  const ChaosParams p = opt.small ? ChaosParams{64, 2.5} : ChaosParams{256, 10};
  SpanLog* spans = opt.spans;
  RunResult r;
  const Stopwatch setup_clock;

  ClusterConfig config;
  config.nodes = 8;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  config.node_config.seed = opt.seed;
  config.node_config.keep_alive_ttl = SimDuration::Seconds(30);
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = 16;
  config.poolmgr.replication = 2;
  config.poolmgr.lease_ttl = SimDuration::Seconds(20);
  config.poolctl.enabled = true;
  config.poolctl.rebalance_budget_pages = 32768;
  config.faults = ChaosFaults(p.minutes * 60, opt.seed);
  std::optional<Cluster> cluster;
  {
    Span span(spans, "cluster.build");
    cluster.emplace(config);
  }
  const std::vector<FunctionProfile> catalog = CloneCatalog(p.functions);
  for (const FunctionProfile& profile : catalog) {
    Span span(spans, "criu.deploy");
    if (const Status s = cluster->Deploy(profile); !s.ok()) {
      r.error = "deploy " + profile.name + ": " + s.ToString();
      return r;
    }
  }
  Schedule schedule;
  {
    Span span(spans, "workload.generate");
    Rng rng(opt.seed);
    schedule = trenv::MakePoissonWorkload(NamesOf(catalog), 200.0,
                                          SimDuration::FromSecondsF(p.minutes * 60), 0.3, rng);
  }
  r.setup_s = setup_clock.CpuSeconds();

  Histogram e2e;
  uint64_t callbacks = 0;
  std::optional<GrowthMeter> meter;
  if (spans != nullptr) {
    meter.emplace(At(p.minutes * 60), ClusterEvents(*cluster));
  }
  const Stopwatch run_clock;
  if (const Status s = DriveCluster(*cluster, schedule, spans, meter ? &*meter : nullptr, &e2e,
                                    &callbacks);
      !s.ok()) {
    r.error = "run: " + s.ToString();
    return r;
  }
  r.run_s = run_clock.CpuSeconds();
  r.run_wall_s = run_clock.WallSeconds();

  std::string text = CollectCluster(*cluster, r);
  // The end-to-end e2e metrics time each invocation from its start on the
  // node it ran on. Timed from when it was due, the template attach and any
  // failover re-dispatch join it; that p99 sits on the edge of a rare
  // multi-second attach tail and moves several-fold between traces, so it is
  // reported per layer instead.
  r.layer["poolmgr.due_e2e_p99_ms"] = e2e.P99();
  const trenv::PoolManager& mgr = *cluster->pool_manager();
  const trenv::PoolControlPlane& ctl = *cluster->pool_control();
  const trenv::FaultInjector& faults = *cluster->fault_injector();
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  r.layer["poolmgr.lease_hit_ratio"] =
      Ratio(count(mgr.lease_hits()), count(mgr.lease_hits() + mgr.lease_misses()));
  r.layer["poolmgr.remote_fetch_pages"] = count(mgr.remote_fetch_pages());
  r.layer["poolmgr.coalesced_ratio"] =
      Ratio(count(mgr.coalesced_requests()),
            count(mgr.coalesced_requests() + mgr.remote_fetch_ops()));
  r.layer["poolmgr.shed_attaches"] = count(mgr.shed_attaches());
  r.layer["poolmgr.dead_read_hops"] = count(mgr.dead_read_hops());
  r.layer["poolmgr.nas_fallback_pages"] = count(mgr.nas_fallback_pages());
  r.layer["poolmgr.rebalanced_pages"] = count(mgr.rebalanced_pages());
  r.layer["poolmgr.attach_p99_ms"] = mgr.attach_ms().empty() ? 0 : mgr.attach_ms().P99();
  r.layer["poolctl.deaths"] = count(ctl.membership().deaths());
  r.layer["poolctl.false_suspicions"] = count(ctl.membership().false_suspicions());
  r.layer["poolctl.rejoins"] = count(ctl.membership().rejoins());
  r.layer["poolctl.rebalance_pages"] = count(ctl.pages_moved());
  r.layer["poolctl.under_replicated_end"] = count(mgr.UnderReplicatedShards());
  r.layer["fault.injected"] = count(faults.injected());
  r.layer["fault.retries"] = count(faults.retries());
  r.layer["fault.failovers"] = count(faults.failovers());
  r.layer["fault.exhausted_fetches"] = count(faults.exhausted_fetches());
  if (spans != nullptr) {
    CollectHostLayers(*spans, static_cast<double>(schedule.size()), p.functions, r);
    meter->Sample(At(p.minutes * 60), ClusterEvents(*cluster), /*force=*/true);
    r.layer["platform.drain_growth"] = meter->Growth();
    const double drain_ns = static_cast<double>(spans->totals("sim.advance").total_ns +
                                                spans->totals("sim.drain").total_ns);
    r.layer["sim.drain_ns_per_event"] = Ratio(drain_ns, static_cast<double>(r.sim_events));
    r.layer["fault.apply_ms"] =
        static_cast<double>(spans->totals("fault.apply").total_ns) / 1e6;
  }

  // The rack must lose nothing and end fully replicated.
  if (callbacks != r.completed) {
    r.error = "completion callbacks (" + std::to_string(callbacks) +
              ") disagree with completed invocations (" + std::to_string(r.completed) + ")";
    return r;
  }
  if (r.accepted != r.completed) {
    r.error = "lost invocations: accepted " + std::to_string(r.accepted) + ", completed " +
              std::to_string(r.completed);
    return r;
  }
  if (mgr.UnderReplicatedShards() != 0) {
    r.error = std::to_string(mgr.UnderReplicatedShards()) +
              " shard(s) under-replicated at the end of the run";
    return r;
  }
  std::ostringstream out;
  out << std::setprecision(17);
  FingerprintHistogram(out, "due_e2e", e2e);
  FingerprintHistogram(out, "attach", mgr.attach_ms());
  text += out.str();
  r.digest = Digest(text);
  r.ok = true;
  return r;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"dense_catalog", &RunDenseCatalog, 11},
      {"rack_burst", &RunRackBurst, 5},
      {"rack_chaos", &RunRackChaos, 7},
  };
  return kWorkloads;
}

}  // namespace perfbench
