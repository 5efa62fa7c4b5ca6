// Tests for rack-level multi-node sharing (paper sections 5.1, 8.2): many
// nodes, one CXL multi-headed device, one consolidated image per rack.
#include <gtest/gtest.h>

#include "src/platform/cluster.h"

namespace trenv {
namespace {

TEST(ClusterTest, DeployStoresOneImagePerRack) {
  // Deploy the same functions on 1 node and on 6 nodes: the shared pool
  // must hold the SAME number of bytes (cross-node dedup).
  ClusterConfig one_cfg;
  one_cfg.nodes = 1;
  Cluster one(one_cfg);
  ASSERT_TRUE(one.DeployTable4Functions().ok());

  ClusterConfig six_cfg;
  six_cfg.nodes = 6;
  Cluster six(six_cfg);
  ASSERT_TRUE(six.DeployTable4Functions().ok());

  EXPECT_EQ(one.PoolBytes(), six.PoolBytes());
  EXPECT_GT(six.PoolBytes(), 0u);
  // Six nodes ingest 6x the pages but store them once: the rack-level dedup
  // ratio is 1/6 of the single-node ratio (section 8.2's "reduced by a
  // factor of the number of machines").
  EXPECT_NEAR(six.dedup().DedupRatio() * 6.0, one.dedup().DedupRatio(), 0.02);
}

TEST(ClusterTest, PortLimitEnforcedByMhd) {
  ClusterConfig config;
  config.nodes = 12;  // exactly the commercial MHD's port count
  Cluster cluster(config);
  EXPECT_EQ(cluster.node_count(), 12u);
  EXPECT_EQ(cluster.cxl().attached_nodes(), 12u);
  EXPECT_EQ(cluster.cxl().AttachNode(99).code(), StatusCode::kResourceExhausted);
}

TEST(ClusterTest, RoundRobinSpreadsInvocations) {
  ClusterConfig config;
  config.nodes = 4;
  config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  Schedule schedule;
  for (int i = 0; i < 8; ++i) {
    schedule.push_back({SimTime::Zero() + SimDuration::Millis(i * 10), "JS"});
  }
  ASSERT_TRUE(cluster.Run(schedule).ok());
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    EXPECT_EQ(cluster.node(i).metrics().Aggregate().invocations, 2u) << "node " << i;
  }
  EXPECT_EQ(cluster.TotalInvocations(), 8u);
}

TEST(ClusterTest, InvalidFunctionIdRejected) {
  // kInvalidFunctionId reaches every id-indexed lookup on the dispatch path
  // (keep-alive counts, leases, template attach, the registry) and must come
  // back kNotFound from each dispatch policy, the poolmgr attach included.
  for (const auto dispatch : {ClusterConfig::Dispatch::kLeastLoaded,
                              ClusterConfig::Dispatch::kTemplateLocality}) {
    ClusterConfig config;
    config.nodes = 2;
    config.dispatch = dispatch;
    config.poolmgr.enabled = dispatch == ClusterConfig::Dispatch::kTemplateLocality;
    Cluster cluster(config);
    ASSERT_TRUE(cluster.DeployTable4Functions().ok());
    const Status status = cluster.Submit(SimTime::Zero(), kInvalidFunctionId);
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.message();
    EXPECT_NE(status.message().find(kUnknownFunctionName), std::string::npos)
        << status.message();
    EXPECT_EQ(cluster.accepted_invocations(), 0u);
  }
}

TEST(ClusterTest, RejectionNamesNodeAndFunctionOnBothDispatchPaths) {
  // A rack with only JS deployed gets an arrival for a name that is interned
  // but deployed nowhere. Cluster::Submit and RunSharded both reject it at
  // dispatch, before a sharded run would queue it in the node's inbox. Both
  // errors name the node (round robin sends the second arrival to node 1) and
  // the function, in the same words, at any shard count, and neither path
  // counts the rejected arrival as accepted. The accepted JS arrival is not
  // lost: inside a lookahead window it is still queued when the rejection
  // returns, and the next step runs it.
  const FunctionId undeployed = InternFunction("cluster-test-undeployed");
  ClusterConfig config;
  config.nodes = 2;
  config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
  const auto deploy_js = [](Cluster& cluster) {
    for (const FunctionProfile& profile : Table4Functions()) {
      if (profile.name == "JS") {
        ASSERT_TRUE(cluster.Deploy(profile).ok());
      }
    }
  };
  const SimTime first = SimTime::Zero();
  const SimTime second = first + SimDuration::Millis(1);

  Cluster direct(config);
  deploy_js(direct);
  ASSERT_TRUE(direct.Submit(first, InternFunction("JS")).ok());
  const Status rejected = direct.Submit(second, undeployed);
  EXPECT_EQ(rejected.code(), StatusCode::kNotFound);
  EXPECT_NE(rejected.message().find("node 1 rejected"), std::string::npos) << rejected.message();
  EXPECT_NE(rejected.message().find("'cluster-test-undeployed'"), std::string::npos)
      << rejected.message();
  EXPECT_EQ(direct.accepted_invocations(), 1u);
  direct.DrainAll();
  EXPECT_EQ(direct.TotalInvocations(), 1u);

  const Schedule schedule = {{first, "JS"}, {second, undeployed}};
  for (const SimDuration lookahead : {SimDuration::Zero(), SimDuration::Millis(10)}) {
    for (const uint32_t shards : {1u, 2u}) {
      Cluster cluster(config);
      deploy_js(cluster);
      ScheduleStream stream(schedule);
      ShardedRunOptions options;
      options.shards = shards;
      options.lookahead = lookahead;
      const Status status = cluster.RunSharded(stream, options);
      EXPECT_EQ(status.code(), StatusCode::kNotFound) << "shards " << shards;
      EXPECT_EQ(status.message(), rejected.message()) << "shards " << shards;
      EXPECT_EQ(cluster.sharded_effective_shards(), shards);
      EXPECT_EQ(cluster.accepted_invocations(), direct.accepted_invocations())
          << "shards " << shards;
      cluster.DrainAll();
      EXPECT_EQ(cluster.TotalInvocations(), 1u)
          << "shards " << shards << " lookahead " << lookahead.nanos();
    }
  }
}

TEST(ClusterTest, LeastLoadedAvoidsBusyNodes) {
  ClusterConfig config;
  config.nodes = 3;
  config.dispatch = ClusterConfig::Dispatch::kLeastLoaded;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  // A burst of simultaneous launches must not all land on node 0.
  Schedule schedule;
  for (int i = 0; i < 9; ++i) {
    schedule.push_back({SimTime::Zero() + SimDuration::Millis(i), "IR"});
  }
  ASSERT_TRUE(cluster.Run(schedule).ok());
  size_t nodes_used = 0;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    if (cluster.node(i).metrics().Aggregate().invocations > 0) {
      ++nodes_used;
    }
  }
  EXPECT_EQ(nodes_used, 3u);
  EXPECT_EQ(cluster.TotalInvocations(), 9u);
}

TEST(ClusterTest, RackMemoryScalesSublinearly) {
  // N nodes each running the big IR function: per-node DRAM holds only CoW
  // pages; the 855 MiB image exists once, in the pool.
  auto rack_bytes = [](uint32_t nodes) {
    ClusterConfig config;
    config.nodes = nodes;
    Cluster cluster(config);
    EXPECT_TRUE(cluster.DeployTable4Functions().ok());
    Schedule schedule;
    for (uint32_t i = 0; i < nodes; ++i) {
      schedule.push_back({SimTime::Zero() + SimDuration::Millis(i), "IR"});
    }
    EXPECT_TRUE(cluster.Run(schedule).ok());
    // Sample memory while instances are still warm in keep-alive.
    uint64_t dram = 0;
    for (size_t i = 0; i < cluster.node_count(); ++i) {
      dram += static_cast<uint64_t>(cluster.node(i).metrics().peak_memory_bytes());
    }
    return std::make_pair(cluster.PoolBytes(), dram);
  };
  const auto [pool_1, dram_1] = rack_bytes(1);
  const auto [pool_6, dram_6] = rack_bytes(6);
  EXPECT_EQ(pool_1, pool_6);  // one rack copy regardless of node count
  // Per-node DRAM grows ~linearly but is far smaller than 6 full images.
  EXPECT_LT(dram_6, 6ULL * FindTable4Function("IR")->image_bytes / 2);
}

TEST(ClusterTest, CrossNodeInstancesShareContent) {
  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  Schedule schedule{{SimTime::Zero(), "JS"}, {SimTime::Zero() + SimDuration::Millis(1), "JS"}};
  config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
  ASSERT_TRUE(cluster.Run(schedule).ok());
  // Both nodes executed without growing the shared pool (reads direct).
  EXPECT_EQ(cluster.TotalInvocations(), 2u);
  EXPECT_EQ(cluster.AggregateMetrics().e2e_ms.count(), 2u);
}

TEST(ClusterTest, AggregateCountsPrewarmedStarts) {
  // Nodes sharing one histogram policy pre-warm ahead of a periodic
  // function, as in PrewarmIntegrationTest; the rack aggregate must carry
  // every node's pre-warmed starts.
  PrewarmPolicy policy;
  ClusterConfig config;
  config.nodes = 2;
  config.node_config.prewarm = &policy;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  Schedule schedule;
  for (int i = 0; i < 14; ++i) {
    schedule.push_back({SimTime::Zero() + SimDuration::Minutes(20 * i), "JS"});
  }
  ASSERT_TRUE(cluster.Run(schedule).ok());
  uint64_t per_node = 0;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    per_node += cluster.node(i).metrics().Aggregate().prewarm_starts;
  }
  EXPECT_GT(per_node, 0u);
  EXPECT_EQ(cluster.AggregateMetrics().prewarm_starts, per_node);
}

TEST(ClusterTest, PrefetchFlagReachesNodeEngines) {
  // With working-set prefetch on, the first invocation after an attach
  // records its footprint on the node that ran it.
  ClusterConfig config;
  config.nodes = 2;
  config.dispatch = ClusterConfig::Dispatch::kRoundRobin;
  config.node_config.trenv_prefetch = true;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  ASSERT_TRUE(cluster.Run(Schedule{{SimTime::Zero(), "JS"}}).ok());
  const obs::Counter* recorded =
      cluster.node(0).metrics().registry().FindCounter("trenv.ws.recorded_pages");
  ASSERT_NE(recorded, nullptr);
  EXPECT_GT(recorded->count(), 0u);
}

}  // namespace
}  // namespace trenv
