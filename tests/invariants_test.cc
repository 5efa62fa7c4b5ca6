// System-wide invariant and property tests: the guarantees the paper's
// security discussion (section 8.1) and design sections rest on, checked
// under randomized operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>

#include "src/criu/trenv_engine.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/rdma_pool.h"
#include "src/platform/testbed.h"
#include "src/workload/traces.h"

namespace trenv {
namespace {

std::vector<std::string> bench_names() {
  std::vector<std::string> names;
  for (const auto& fn : Table4Functions()) {
    names.push_back(fn.name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Security invariants (section 8.1).
// ---------------------------------------------------------------------------

TEST(SecurityInvariantTest, RepurposedSandboxLeaksNothing) {
  SandboxFactory factory(std::make_shared<FsLayer>("base"));
  auto cold = factory.CreateCold(InternFunction("tenant-a"), std::make_shared<UnionFs>(), CgroupLimits{}, 0,
                                 /*use_clone_into=*/true);
  Sandbox& sandbox = *cold.sandbox;

  // Tenant A leaves every kind of residue behind.
  ASSERT_TRUE(sandbox.rootfs()->Write("/tmp/credentials", 4096, 0x5EC12E7).ok());
  ASSERT_TRUE(sandbox.function_overlay()->Write("/app/cache.bin", 1 * kMiB, 0xCAC4E).ok());
  sandbox.netns().OpenConnection(42);
  sandbox.cgroup().AddProcess(1234);

  sandbox.Cleanse(/*process_count=*/2);
  auto repurposed = sandbox.Repurpose(InternFunction("tenant-b"), std::make_shared<UnionFs>(), CgroupLimits{});
  ASSERT_TRUE(repurposed.ok());

  // Nothing of tenant A survives into tenant B's view.
  EXPECT_FALSE(sandbox.rootfs()->Exists("/tmp/credentials"));
  EXPECT_FALSE(sandbox.function_overlay()->Exists("/app/cache.bin"));
  EXPECT_EQ(sandbox.netns().open_connection_count(), 0u);
  EXPECT_EQ(sandbox.cgroup().process_count(), 0u);
}

TEST(SecurityInvariantTest, NetnsConfigResetOnlyWhenCustomized) {
  SandboxFactory factory(std::make_shared<FsLayer>("base"));
  auto cold = factory.CreateCold(InternFunction("a"), nullptr, CgroupLimits{}, 0, true);
  Sandbox& sandbox = *cold.sandbox;
  sandbox.netns().AddFirewallRule();  // tenant customizes the netns
  sandbox.Cleanse(1);
  ASSERT_TRUE(sandbox.Repurpose(InternFunction("b"), std::make_shared<UnionFs>(), CgroupLimits{}).ok());
  // Custom config was wiped before handing the netns to the next tenant.
  EXPECT_FALSE(sandbox.netns().HasCustomConfig());
}

TEST(SecurityInvariantTest, UnprivilegedCallerCannotUseMmtDevice) {
  CxlPool cxl(kGiB);
  BackendRegistry backends;
  backends.Register(&cxl);
  MmtApi api(&backends);
  api.set_caller_privileged(false);
  EXPECT_EQ(api.MmtCreate("x"), kInvalidMmtId);
  EXPECT_EQ(api.MmtAddMap(1, 0x1000, kPageSize, Protection::ReadOnly(), true, -1, 0).code(),
            StatusCode::kPermissionDenied);
  MmStruct mm;
  EXPECT_EQ(api.MmtAttach(1, &mm).status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(api.MmtDestroy(1).code(), StatusCode::kPermissionDenied);
  // Privilege restored: the device works again.
  api.set_caller_privileged(true);
  EXPECT_NE(api.MmtCreate("x"), kInvalidMmtId);
}

TEST(SecurityInvariantTest, AslrLimitationIsReal) {
  // Documented limitation (section 8.1.2): every instance restored from the
  // same template shares the same virtual layout.
  Testbed bed(SystemKind::kTrEnvCxl);
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  FrameAllocator frames(8 * kGiB);
  PidAllocator pids;
  RestoreContext ctx;
  ctx.frames = &frames;
  ctx.backends = &bed.backends();
  ctx.pids = &pids;
  auto* engine = static_cast<TrEnvEngine*>(&bed.engine());
  const FunctionProfile* js = FindTable4Function("JS");
  auto a = engine->Restore(*js, ctx);
  auto b = engine->Restore(*js, ctx);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto& vmas_a = a.value().instance->main_process()->mm().vmas();
  const auto& vmas_b = b.value().instance->main_process()->mm().vmas();
  ASSERT_EQ(vmas_a.size(), vmas_b.size());
  auto it_b = vmas_b.begin();
  for (const auto& [start, vma] : vmas_a) {
    EXPECT_EQ(start, it_b->first);  // identical layout: ASLR is defeated
    ++it_b;
  }
}

// ---------------------------------------------------------------------------
// Memory conservation: local frames always return to zero.
// ---------------------------------------------------------------------------

class MemoryConservationTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(MemoryConservationTest, FramesReturnToZeroAfterDrain) {
  Testbed bed(GetParam());
  ASSERT_TRUE(bed.DeployTable4Functions().ok());
  Rng rng(31);
  Schedule schedule =
      MakePoissonWorkload(bench_names(), 4.0, SimDuration::Minutes(4), 0.5, rng);
  ASSERT_TRUE(bed.platform().Run(schedule).ok());
  bed.platform().EvictAllIdle();
  EXPECT_EQ(bed.platform().frames().used_bytes(), 0u) << SystemName(GetParam());
  EXPECT_EQ(bed.platform().failed_invocations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, MemoryConservationTest,
                         ::testing::Values(SystemKind::kFaasd, SystemKind::kCriu,
                                           SystemKind::kReapPlus, SystemKind::kFaasnapPlus,
                                           SystemKind::kTrEnvCxl, SystemKind::kTrEnvRdma,
                                           SystemKind::kTrEnvTiered,
                                           SystemKind::kTrEnvDramHot),
                         [](const auto& param_info) {
                           std::string name = SystemName(param_info.param);
                           std::erase_if(name, [](char c) { return !std::isalnum(c); });
                           return name;
                         });

// ---------------------------------------------------------------------------
// CoW isolation under randomized write patterns.
// ---------------------------------------------------------------------------

class CowIsolationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CowIsolationFuzzTest, InstancesNeverObserveEachOthersWrites) {
  Rng rng(GetParam());
  CxlPool cxl(4 * kGiB);
  BackendRegistry backends;
  backends.Register(&cxl);
  FrameAllocator frames(4 * kGiB);
  FaultHandler kernel(&frames, &backends);
  MmtApi api(&backends);

  constexpr Vaddr kBase = 0x10000000;
  constexpr uint64_t kPages = 64;
  MmtId id = api.MmtCreate("fuzz");
  ASSERT_TRUE(
      api.MmtAddMap(id, kBase, kPages * kPageSize, Protection::ReadWrite(), true, -1, 0).ok());
  auto pool_base = cxl.AllocatePages(kPages);
  ASSERT_TRUE(pool_base.ok());
  ASSERT_TRUE(cxl.WriteContent(*pool_base, kPages, 0xF00D).ok());
  ASSERT_TRUE(api.MmtSetupPt(id, kBase, kPages * kPageSize, *pool_base, PoolKind::kCxl).ok());

  constexpr size_t kInstances = 4;
  std::vector<MmStruct> mms(kInstances);
  // Reference model: expected content per (instance, page).
  std::vector<std::map<uint64_t, PageContent>> expected(kInstances);
  for (auto& mm : mms) {
    ASSERT_TRUE(api.MmtAttach(id, &mm).ok());
  }

  // The model's view: the instance's own write, else the template image.
  auto want = [&](size_t instance, uint64_t page) {
    auto it = expected[instance].find(page);
    return it != expected[instance].end() ? it->second : 0xF00D + page;
  };
  for (int op = 0; op < 500; ++op) {
    const auto instance = static_cast<size_t>(rng.NextBounded(kInstances));
    MmStruct& mm = mms[instance];
    const uint64_t page = rng.NextBounded(kPages);
    const Vaddr addr = kBase + page * kPageSize;
    if (rng.NextBool(0.3)) {
      // A run of 1-16 pages through AccessRange, the path every engine runs:
      // it splits and merges the instance's runs. A write stores fresh
      // content, read back from the page table into the model.
      const uint64_t npages = 1 + rng.NextBounded(std::min<uint64_t>(16, kPages - page));
      const bool write = rng.NextBool(0.5);
      ASSERT_TRUE(kernel.AccessRange(mm, addr, npages, write).ok());
      for (uint64_t p = page; p < page + npages; ++p) {
        const auto pte = mm.page_table().Lookup(AddrToVpn(kBase) + p);
        ASSERT_TRUE(pte.has_value());
        if (write) {
          // Fresh content in a private local copy; the image page is intact.
          EXPECT_NE(pte->content, 0xF00D + p) << "instance " << instance << " page " << p;
          EXPECT_EQ(pte->flags.pool, PoolKind::kLocalDram);
          expected[instance][p] = pte->content;
        } else {
          EXPECT_EQ(pte->content, want(instance, p)) << "instance " << instance << " page " << p;
        }
      }
    } else if (rng.NextBool(0.4)) {
      const PageContent value = rng.NextU64() | 1;
      ASSERT_TRUE(kernel.WritePage(mm, addr, value).ok());
      expected[instance][page] = value;
    } else {
      auto content = kernel.ReadPage(mm, addr);
      ASSERT_TRUE(content.ok());
      EXPECT_EQ(*content, want(instance, page)) << "instance " << instance << " page " << page;
    }
  }
  // Every instance sees exactly its own writes over the shared image.
  for (size_t instance = 0; instance < kInstances; ++instance) {
    for (uint64_t page = 0; page < kPages; ++page) {
      auto content = kernel.ReadPage(mms[instance], kBase + page * kPageSize);
      ASSERT_TRUE(content.ok());
      EXPECT_EQ(*content, want(instance, page)) << "instance " << instance << " page " << page;
    }
  }
  // The shared pool image is never mutated.
  for (uint64_t page = 0; page < kPages; ++page) {
    EXPECT_EQ(*cxl.ReadContent(*pool_base + page), 0xF00D + page);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowIsolationFuzzTest, ::testing::Values(3, 17, 99, 1234));

// ---------------------------------------------------------------------------
// DRAM-hot placement ablation behaves as designed.
// ---------------------------------------------------------------------------

TEST(DramHotTest, HotRegionsAvoidCxlPenalty) {
  auto exec_multiplier_proxy = [](SystemKind kind) {
    Testbed bed(kind);
    EXPECT_TRUE(bed.DeployTable4Functions().ok());
    FrameAllocator frames(16 * kGiB);
    PidAllocator pids;
    RestoreContext ctx;
    ctx.frames = &frames;
    ctx.backends = &bed.backends();
    ctx.pids = &pids;
    const FunctionProfile* dh = FindTable4Function("DH");
    auto outcome = bed.engine().Restore(*dh, ctx);
    EXPECT_TRUE(outcome.ok());
    auto overheads = bed.engine().OnExecute(*dh, *outcome->instance, ctx);
    EXPECT_TRUE(overheads.ok());
    return overheads->cpu_multiplier;
  };
  const double pure_cxl = exec_multiplier_proxy(SystemKind::kTrEnvCxl);
  const double dram_hot = exec_multiplier_proxy(SystemKind::kTrEnvDramHot);
  // DH is memory-bound: on pure CXL the multiplier approaches 1.9; pinning
  // the hot file-backed regions in DRAM removes most of it.
  EXPECT_GT(pure_cxl, 1.6);
  EXPECT_LT(dram_hot, 1.35);
  EXPECT_GE(dram_hot, 1.0);
}

// ---------------------------------------------------------------------------
// Keep-alive pool invariants under random churn.
// ---------------------------------------------------------------------------

TEST(KeepAliveFuzzTest, LruOrderAndCountsHold) {
  // Reference model: a std::list in LRU order (park order) that expiry scans
  // front to back. Per-entry TTLs make expiry non-monotone along the list, so
  // the pool's expiry index must still evict due entries in list order.
  struct ModelEntry {
    uint64_t id;
    FunctionId function;
    SimTime expiry;
  };
  Rng rng(5);
  std::vector<uint64_t> evicted;  // instance ids, in evict-callback order
  KeepAlivePool pool(SimDuration::Seconds(60),
                     [&](std::unique_ptr<FunctionInstance> instance) {
                       evicted.push_back(instance->invocations);
                     });
  std::list<ModelEntry> model;
  std::vector<uint64_t> expected;
  SimTime now;
  uint64_t next_id = 1;
  const std::vector<FunctionId> fns = {InternFunction("a"), InternFunction("b"),
                                       InternFunction("c")};
  for (int op = 0; op < 4000; ++op) {
    now += SimDuration::Seconds(static_cast<int64_t>(rng.NextBounded(10)));
    const FunctionId fn = fns[rng.NextBounded(fns.size())];
    switch (rng.NextBounded(6)) {
      case 0:
      case 1: {
        auto instance = std::make_unique<FunctionInstance>(fn, nullptr);
        instance->invocations = next_id;  // the instance's identity
        SimDuration ttl = pool.ttl();
        if (rng.NextBool(0.5)) {
          ttl = SimDuration::Seconds(static_cast<int64_t>(rng.NextBounded(120)));
          pool.Put(std::move(instance), now, ttl);
        } else {
          pool.Put(std::move(instance), now);
        }
        model.push_back({next_id++, fn, now + ttl});
        break;
      }
      case 2: {
        // The function's most recently parked entry, or nothing.
        auto mru = std::find_if(model.rbegin(), model.rend(),
                                [&](const ModelEntry& e) { return e.function == fn; });
        auto taken = pool.TakeWarm(fn);
        if (mru == model.rend()) {
          EXPECT_EQ(taken, nullptr);
        } else {
          ASSERT_NE(taken, nullptr);
          EXPECT_EQ(taken->function_id(), fn);
          EXPECT_EQ(taken->invocations, mru->id);
          model.erase(std::next(mru).base());
        }
        break;
      }
      case 3: {
        size_t due = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (it->expiry <= now) {
            expected.push_back(it->id);
            it = model.erase(it);
            ++due;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(pool.ExpireStale(now), due);
        break;
      }
      case 4: {
        EXPECT_EQ(pool.EvictLru(), !model.empty());
        if (!model.empty()) {
          expected.push_back(model.front().id);
          model.pop_front();
        }
        break;
      }
      case 5: {
        // Occasionally the node crashes: everything goes, nothing is evicted.
        if (rng.NextBool(0.1)) {
          pool.Drop();
          model.clear();
        }
        break;
      }
    }
    ASSERT_EQ(evicted, expected) << "op " << op;
    ASSERT_EQ(pool.size(), model.size()) << "op " << op;
    for (const auto& f : fns) {
      EXPECT_EQ(pool.CountFor(f), static_cast<size_t>(std::count_if(
                                      model.begin(), model.end(),
                                      [&](const ModelEntry& e) { return e.function == f; })));
    }
  }
  pool.EvictAll();
  for (const ModelEntry& e : model) {
    expected.push_back(e.id);
  }
  EXPECT_EQ(evicted, expected);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_GT(evicted.size(), 100u);
}

}  // namespace
}  // namespace trenv
