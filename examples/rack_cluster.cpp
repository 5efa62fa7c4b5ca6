// Scenario: a rack of TrEnv nodes sharing one CXL multi-headed device — the
// "across nodes" half of the paper's title. Shows that deploying the same
// functions on more nodes does not grow the pool (one consolidated image per
// rack) while per-node DRAM stays thin.
//
// Build & run:  ./build/examples/rack_cluster
#include <iostream>

#include "src/common/table.h"
#include "src/platform/cluster.h"

int main() {
  using namespace trenv;

  ClusterConfig config;
  config.nodes = 8;
  config.dispatch = ClusterConfig::Dispatch::kLeastLoaded;
  Cluster rack(config);
  if (Status status = rack.DeployTable4Functions(); !status.ok()) {
    std::cerr << "deploy failed: " << status << "\n";
    return 1;
  }
  std::cout << "Deployed 10 functions on " << rack.node_count()
            << " nodes attached to one CXL MHD (" << rack.cxl().attached_nodes() << "/"
            << CxlPool::kPortCount << " ports).\n"
            << "Consolidated images in the pool: " << FormatBytes(rack.PoolBytes())
            << " (stored once for the whole rack; rack-level dedup ratio "
            << Table::Num(rack.dedup().DedupRatio(), 3) << ")\n\n";

  // A burst hits the rack: the least-loaded dispatcher spreads it out.
  Schedule schedule;
  Rng rng(21);
  for (int i = 0; i < 64; ++i) {
    const char* fn = i % 3 == 0 ? "IR" : (i % 3 == 1 ? "JS" : "CR");
    schedule.push_back({SimTime::Zero() + SimDuration::Millis(i * 5), fn});
  }
  if (Status status = rack.Run(schedule); !status.ok()) {
    std::cerr << "run failed: " << status << "\n";
    return 1;
  }

  Table table({"Node", "invocations", "repurposed", "cold", "peak DRAM"});
  for (size_t i = 0; i < rack.node_count(); ++i) {
    const FunctionMetrics m = rack.node(i).metrics().Aggregate();
    table.AddRow({std::to_string(i), std::to_string(m.invocations),
                  std::to_string(m.repurposed_starts), std::to_string(m.cold_starts),
                  FormatBytes(rack.node(i).metrics().peak_memory_bytes())});
  }
  table.Print(std::cout);

  const FunctionMetrics agg = rack.AggregateMetrics();
  std::cout << "\nRack summary: " << agg.invocations << " invocations, p99 e2e "
            << Table::Num(agg.e2e_ms.P99()) << " ms\n"
            << "Rack memory right now: " << FormatBytes(rack.RackTotalBytes()) << " ("
            << FormatBytes(rack.PoolBytes()) << " shared pool + "
            << FormatBytes(rack.NodeDramBytes()) << " across all node DRAM)\n"
            << "A per-node-images design would need ~" << rack.node_count()
            << "x the image bytes instead (paper section 8.2).\n";
  return 0;
}
