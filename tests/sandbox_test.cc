// Tests for the sandbox substrate: union fs, namespaces, cgroups, and the
// cleanse/repurpose lifecycle.
#include <gtest/gtest.h>

#include "src/common/cost_model.h"
#include "src/sandbox/sandbox.h"
#include "src/sandbox/sandbox_pool.h"

namespace trenv {
namespace {

std::shared_ptr<FsLayer> BaseLayer() {
  auto layer = std::make_shared<FsLayer>("base");
  layer->AddFile("/lib/libc.so", FileNode{1 * kMiB, 1, 1});
  layer->AddFile("/bin/python", FileNode{5 * kMiB, 2, 2});
  return layer;
}

TEST(UnionFsTest, LowerLayersResolveTopDown) {
  UnionFs fs;
  auto bottom = std::make_shared<FsLayer>("bottom");
  bottom->AddFile("/a", FileNode{100, 1, 1});
  bottom->AddFile("/b", FileNode{200, 2, 2});
  auto top = std::make_shared<FsLayer>("top");
  top->AddFile("/a", FileNode{150, 3, 3});  // shadows bottom's /a
  fs.PushLower(bottom);
  fs.PushLower(top);
  EXPECT_EQ(fs.Stat("/a")->content_id, 3u);
  EXPECT_EQ(fs.Stat("/b")->content_id, 2u);
  EXPECT_FALSE(fs.Stat("/c").ok());
}

TEST(UnionFsTest, WriteCopiesUpAndPurgeRestores) {
  UnionFs fs;
  fs.PushLower(BaseLayer());
  ASSERT_TRUE(fs.Write("/lib/libc.so", 2 * kMiB, 99).ok());
  EXPECT_EQ(fs.Stat("/lib/libc.so")->content_id, 99u);
  EXPECT_EQ(fs.upper_file_count(), 1u);
  EXPECT_EQ(fs.PurgeUpper(), 1u);
  // Pristine lower view restored.
  EXPECT_EQ(fs.Stat("/lib/libc.so")->content_id, 1u);
  EXPECT_EQ(fs.upper_file_count(), 0u);
}

TEST(UnionFsTest, DeleteWhiteoutsLowerFile) {
  UnionFs fs;
  fs.PushLower(BaseLayer());
  ASSERT_TRUE(fs.Delete("/bin/python").ok());
  EXPECT_FALSE(fs.Exists("/bin/python"));
  fs.PurgeUpper();
  EXPECT_TRUE(fs.Exists("/bin/python"));
}

TEST(UnionFsTest, DeleteUpperOnlyFileLeavesNoWhiteout) {
  UnionFs fs;
  ASSERT_TRUE(fs.Write("/tmp/x", 10, 5).ok());
  ASSERT_TRUE(fs.Delete("/tmp/x").ok());
  EXPECT_FALSE(fs.Exists("/tmp/x"));
  EXPECT_EQ(fs.upper_file_count(), 0u);
  EXPECT_EQ(fs.Delete("/tmp/x").code(), StatusCode::kNotFound);
}

TEST(UnionFsTest, PopLowerSwapsFunctionLayer) {
  UnionFs fs;
  fs.PushLower(BaseLayer());
  auto fn_layer = std::make_shared<FsLayer>("fn-a-deps");
  fn_layer->AddFile("/app/handler.py", FileNode{10 * kKiB, 7, 7});
  fs.PushLower(fn_layer);
  EXPECT_TRUE(fs.Exists("/app/handler.py"));
  ASSERT_TRUE(fs.PopLower().ok());
  EXPECT_FALSE(fs.Exists("/app/handler.py"));
  EXPECT_TRUE(fs.Exists("/lib/libc.so"));
}

TEST(NetNamespaceTest, ResetClosesConnectionsKeepsConfig) {
  NetNamespace netns(1);
  netns.OpenConnection(10);
  netns.OpenConnection(11);
  netns.AddFirewallRule();
  netns.RecordTraffic(1000);
  netns.ResetForReuse();
  EXPECT_EQ(netns.open_connection_count(), 0u);  // no data leakage
  EXPECT_EQ(netns.firewall_rules(), 1u);         // config preserved
  EXPECT_EQ(netns.rx_bytes(), 1000u);            // stats preserved
  netns.FullReset();
  EXPECT_EQ(netns.firewall_rules(), 0u);
}

TEST(NetNsFactoryTest, CreationCostGrowsWithConcurrency) {
  const SimDuration alone = NetNsFactory::CreateCost(0);
  const SimDuration at15 = NetNsFactory::CreateCost(15);
  EXPECT_EQ(alone, cost::kNetNsCreateBase);
  // Paper: ~400 ms at 15-way concurrency.
  EXPECT_GT(at15.millis(), 350.0);
  EXPECT_LT(at15.millis(), 500.0);
}

TEST(CgroupManagerTest, CloneIntoIsOrdersOfMagnitudeCheaper) {
  CgroupManager mgr;
  const SimDuration migrate = mgr.MigrateCost(4);
  const SimDuration clone_into = mgr.CloneIntoCost();
  EXPECT_GT(migrate.micros() / clone_into.micros(), 30.0);
  EXPECT_GE(clone_into, cost::kCloneIntoCgroupMin);
  EXPECT_LE(clone_into, cost::kCloneIntoCgroupMax);
}

TEST(CgroupManagerTest, MigrationCappedAtMax) {
  CgroupManager mgr;
  EXPECT_LE(mgr.MigrateCost(1000), cost::kCgroupMigrateMax);
}

TEST(CgroupManagerTest, CreateCostInPaperRange) {
  CgroupManager mgr;
  for (int i = 0; i < 50; ++i) {
    const SimDuration c = mgr.CreateCost();
    EXPECT_GE(c, cost::kCgroupCreateBase);
    EXPECT_LE(c, cost::kCgroupCreateMax);
  }
}

TEST(MountNamespaceTest, OvermountShadowsAndUmountRestores) {
  MountNamespace mntns;
  auto fs_a = std::make_shared<UnionFs>();
  auto fs_b = std::make_shared<UnionFs>();
  mntns.Mount("/app", MountKind::kOverlay, fs_a);
  mntns.Mount("/app", MountKind::kOverlay, fs_b);
  EXPECT_EQ(mntns.Resolve("/app")->fs, fs_b);
  ASSERT_TRUE(mntns.Umount("/app").ok());
  EXPECT_EQ(mntns.Resolve("/app")->fs, fs_a);
  ASSERT_TRUE(mntns.Umount("/app").ok());
  EXPECT_EQ(mntns.Resolve("/app").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(mntns.Umount("/app").status().code(), StatusCode::kNotFound);
}

class SandboxLifecycleTest : public ::testing::Test {
 protected:
  SandboxLifecycleTest() : factory_(BaseLayer()) {}
  SandboxFactory factory_;
};

TEST_F(SandboxLifecycleTest, ColdCreateCostBreakdown) {
  auto overlay = std::make_shared<UnionFs>();
  auto result = factory_.CreateCold(InternFunction("fn-a"), overlay, CgroupLimits{}, /*concurrent=*/0,
                                    /*use_clone_into=*/false);
  ASSERT_NE(result.sandbox, nullptr);
  EXPECT_EQ(result.sandbox->state(), SandboxState::kInUse);
  EXPECT_EQ(result.sandbox->current_function(), InternFunction("fn-a"));
  // Table 1 orders: network ~80 ms, rootfs >= 30 ms, cgroup >= 26 ms.
  EXPECT_NEAR(result.cost.network.millis(), 80, 1);
  EXPECT_GT(result.cost.rootfs.millis(), 25);
  EXPECT_GT(result.cost.cgroup.millis(), 20);
  EXPECT_LT(result.cost.other.millis(), 1.0);
  // Standard mounts exist.
  EXPECT_TRUE(result.sandbox->mntns().IsMounted("/proc"));
  EXPECT_TRUE(result.sandbox->mntns().IsMounted("/sys"));
  EXPECT_TRUE(result.sandbox->mntns().IsMounted("/app"));
}

TEST_F(SandboxLifecycleTest, RepurposeIsOrdersOfMagnitudeCheaperThanCold) {
  auto cold = factory_.CreateCold(InternFunction("fn-a"), std::make_shared<UnionFs>(), CgroupLimits{}, 0, false);
  Sandbox& sandbox = *cold.sandbox;
  // Function A writes files, opens connections.
  sandbox.netns().OpenConnection(1);
  ASSERT_TRUE(sandbox.rootfs()->Write("/tmp/secret", 4096, 0xDEAD).ok());

  SandboxCost cleanse = sandbox.Cleanse(/*process_count=*/3);
  EXPECT_EQ(sandbox.state(), SandboxState::kIdle);
  EXPECT_EQ(sandbox.netns().open_connection_count(), 0u);
  // No data from A survives.
  EXPECT_FALSE(sandbox.rootfs()->Exists("/tmp/secret"));
  EXPECT_GT(cleanse.deferred, SimDuration::Zero());  // purge is async

  auto overlay_b = std::make_shared<UnionFs>();
  auto repurpose = sandbox.Repurpose(InternFunction("fn-b"), overlay_b, CgroupLimits{.cpu_cores = 2});
  ASSERT_TRUE(repurpose.ok());
  EXPECT_EQ(sandbox.current_function(), InternFunction("fn-b"));
  EXPECT_EQ(sandbox.state(), SandboxState::kInUse);
  EXPECT_EQ(sandbox.cgroup().limits().cpu_cores, 2);
  // Repurposing takes ~1 ms vs ~150+ ms cold.
  EXPECT_LT(repurpose->Total().millis(), 2.0);
  EXPECT_GT(cold.cost.Total().millis(), 100.0);
}

TEST_F(SandboxLifecycleTest, RepurposeWhileInUseRejected) {
  auto cold = factory_.CreateCold(InternFunction("fn-a"), nullptr, CgroupLimits{}, 0, false);
  auto result = cold.sandbox->Repurpose(InternFunction("fn-b"), std::make_shared<UnionFs>(), CgroupLimits{});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SandboxLifecycleTest, CleanupPurgesFunctionOverlayToo) {
  auto overlay = std::make_shared<UnionFs>();
  auto cold = factory_.CreateCold(InternFunction("fn-a"), overlay, CgroupLimits{}, 0, false);
  ASSERT_TRUE(overlay->Write("/app/state.db", 1 * kMiB, 0xBAD).ok());
  cold.sandbox->Cleanse(1);
  EXPECT_EQ(overlay->upper_file_count(), 0u);
}

TEST(SandboxPoolTest, TakeIsFunctionAgnostic) {
  SandboxFactory factory(BaseLayer());
  SandboxPool pool;
  auto a = factory.CreateCold(InternFunction("fn-a"), nullptr, CgroupLimits{}, 0, true);
  a.sandbox->Cleanse(1);
  EXPECT_TRUE(pool.Put(std::move(a.sandbox)));
  auto taken = pool.Take();
  ASSERT_NE(taken, nullptr);
  // Repurposable into a *different* function.
  EXPECT_TRUE(taken->Repurpose(InternFunction("fn-z"), std::make_shared<UnionFs>(), CgroupLimits{}).ok());
  EXPECT_EQ(pool.Take(), nullptr);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(SandboxPoolTest, CapacityBound) {
  SandboxFactory factory(BaseLayer());
  SandboxPool pool;
  for (size_t i = 0; i < SandboxPool::kMaxIdle; ++i) {
    auto a = factory.CreateCold(InternFunction("a"), nullptr, CgroupLimits{}, 0, true);
    EXPECT_TRUE(pool.Put(std::move(a.sandbox)));
  }
  auto b = factory.CreateCold(InternFunction("b"), nullptr, CgroupLimits{}, 0, true);
  EXPECT_FALSE(pool.Put(std::move(b.sandbox)));
  EXPECT_EQ(pool.idle_count(), SandboxPool::kMaxIdle);
}

TEST(SandboxPoolTest, OverlayCacheRoundTrip) {
  SandboxPool pool;
  auto layer = std::make_shared<FsLayer>("fn-deps");
  layer->AddFile("/app/handler.py", FileNode{1024, 9, 9});
  pool.RegisterFunctionLayer("fn", layer);

  auto overlay = pool.AcquireOverlay(InternFunction("fn"));
  ASSERT_NE(overlay, nullptr);
  EXPECT_TRUE(overlay->Exists("/app/handler.py"));
  ASSERT_TRUE(overlay->Write("/app/out.txt", 10, 1).ok());
  pool.ReleaseOverlay(InternFunction("fn"), overlay);
  EXPECT_EQ(pool.cached_overlay_count(InternFunction("fn")), 1u);
  // Reacquired overlay is purged.
  auto again = pool.AcquireOverlay(InternFunction("fn"));
  EXPECT_EQ(again, overlay);
  EXPECT_FALSE(again->Exists("/app/out.txt"));
  EXPECT_EQ(pool.cached_overlay_count(InternFunction("fn")), 0u);
}

}  // namespace
}  // namespace trenv
