// Bitwise equivalence of the sorted-vector hot-path stores and CPU model
// against the original std::map implementations (tests/reference_stores.h).
// Randomized operation sequences — the same seeded stream applied to both
// sides — must leave bit-identical observable state after every step: run
// boundaries and every per-run field, lookups, removal counts, page/extent
// counts, allocator placement decisions, and the instant and order of every
// CPU completion. This is the acceptance bar for the flat rewrites: not
// "equivalent behavior" but the same splits, the same merges, the same
// first-fit choices, the same floating-point results.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/mempool/backend.h"
#include "src/mempool/block_allocator.h"
#include "src/sim/cpu.h"
#include "src/sim/event_scheduler.h"
#include "src/simkernel/page_table.h"
#include "tests/reference_stores.h"

namespace trenv {
namespace {

// ---------------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------------

struct RunDump {
  Vpn vpn;
  uint64_t npages;
  PteFlags flags;
  uint64_t backing;
  PageContent content;
  bool constant;

  bool operator==(const RunDump& o) const {
    return vpn == o.vpn && npages == o.npages && flags == o.flags && backing == o.backing &&
           content == o.content && constant == o.constant;
  }
};

template <typename Table>
std::vector<RunDump> DumpTable(const Table& table) {
  std::vector<RunDump> out;
  table.ForEachRun([&](Vpn vpn, const PteRun& run) {
    out.push_back({vpn, run.npages, run.flags, run.backing_base, run.content_base,
                   run.constant_content});
  });
  return out;
}

PteFlags FlagsVariant(uint64_t v) {
  PteFlags f;
  switch (v % 4) {
    case 0:
      f.valid = true;
      f.pool = PoolKind::kLocalDram;
      break;
    case 1:
      f.valid = true;
      f.write_protected = true;
      f.pool = PoolKind::kCxl;
      break;
    case 2:
      f.valid = false;
      f.pool = PoolKind::kRdma;
      break;
    default:
      f.valid = false;
      f.write_protected = true;
      f.pool = PoolKind::kNas;
      break;
  }
  return f;
}

void ExpectSameLookup(const PageTable& pt, const ref::RefPageTable& rt, Vpn vpn) {
  const std::optional<PteView> a = pt.Lookup(vpn);
  const std::optional<PteView> b = rt.Lookup(vpn);
  ASSERT_EQ(a.has_value(), b.has_value()) << "vpn " << vpn;
  if (a.has_value()) {
    EXPECT_TRUE(a->flags == b->flags) << "vpn " << vpn;
    EXPECT_EQ(a->backing, b->backing) << "vpn " << vpn;
    EXPECT_EQ(a->content, b->content) << "vpn " << vpn;
  }
}

void ExpectSameTable(const PageTable& pt, const ref::RefPageTable& rt) {
  EXPECT_EQ(pt.run_count(), rt.run_count());
  EXPECT_EQ(pt.mapped_pages(), rt.mapped_pages());
  const std::vector<RunDump> a = DumpTable(pt);
  const std::vector<RunDump> b = DumpTable(rt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "run " << i << " differs (vpn " << a[i].vpn << " vs "
                              << b[i].vpn << ")";
  }
}

TEST(FlatStoreEquivalenceTest, PageTableRandomizedOps) {
  constexpr Vpn kSpace = 4096;
  for (uint64_t seed : {11u, 29u, 47u}) {
    Rng rng(seed);
    PageTable pt;
    ref::RefPageTable rt;
    for (int step = 0; step < 4000; ++step) {
      const Vpn vpn = rng.NextBounded(kSpace);
      const uint64_t npages = 1 + rng.NextBounded(256);
      switch (rng.NextBounded(6)) {
        case 0:
        case 1: {  // map: weighted up, it drives the splits and merges
          const PteFlags flags = FlagsVariant(rng.NextU64());
          const bool constant = rng.NextBool(0.2);
          const uint64_t backing = rng.NextBool(0.3) ? kNoBacking : rng.NextBounded(1 << 20);
          const PageContent content = rng.NextBounded(1 << 20);
          pt.MapRange(vpn, npages, flags, backing, content, constant);
          rt.MapRange(vpn, npages, flags, backing, content, constant);
          break;
        }
        case 2: {
          EXPECT_EQ(pt.UnmapRange(vpn, npages), rt.UnmapRange(vpn, npages));
          break;
        }
        case 3: {
          pt.ProtectRange(vpn, npages);
          rt.ProtectRange(vpn, npages);
          break;
        }
        case 4: {
          ExpectSameLookup(pt, rt, vpn);
          break;
        }
        default: {  // clipped window walk
          std::vector<RunDump> a;
          std::vector<RunDump> b;
          pt.ForEachRunIn(vpn, npages, [&](Vpn v, const PteRun& run) {
            a.push_back({v, run.npages, run.flags, run.backing_base, run.content_base,
                         run.constant_content});
          });
          rt.ForEachRunIn(vpn, npages, [&](Vpn v, const PteRun& run) {
            b.push_back({v, run.npages, run.flags, run.backing_base, run.content_base,
                         run.constant_content});
          });
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(a[i] == b[i]);
          }
          break;
        }
      }
      if (step % 64 == 0) {
        ExpectSameTable(pt, rt);
        EXPECT_EQ(pt.CountPagesIf([](const PteFlags& f) { return f.remote(); }),
                  rt.CountPagesIf([](const PteFlags& f) { return f.remote(); }));
        EXPECT_EQ(pt.CountPagesIf([](const PteFlags& f) { return f.valid; }),
                  rt.CountPagesIf([](const PteFlags& f) { return f.valid; }));
      }
      if (HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    ExpectSameTable(pt, rt);
    for (Vpn v = 0; v < kSpace; v += 7) {
      ExpectSameLookup(pt, rt, v);
    }
  }
}

TEST(FlatStoreEquivalenceTest, PageTableCloneFrom) {
  Rng rng(5);
  PageTable src_pt;
  ref::RefPageTable src_rt;
  for (int i = 0; i < 200; ++i) {
    const Vpn vpn = rng.NextBounded(2048);
    const uint64_t npages = 1 + rng.NextBounded(64);
    const PteFlags flags = FlagsVariant(rng.NextU64());
    const uint64_t backing = rng.NextBool(0.5) ? kNoBacking : rng.NextBounded(1 << 16);
    src_pt.MapRange(vpn, npages, flags, backing, i * 1000);
    src_rt.MapRange(vpn, npages, flags, backing, i * 1000);
  }
  // Clone into empty (the mmt_attach metadata-copy fast path).
  PageTable fresh_pt;
  ref::RefPageTable fresh_rt;
  fresh_pt.CloneFrom(src_pt);
  fresh_rt.CloneFrom(src_rt);
  ExpectSameTable(fresh_pt, fresh_rt);
  // Clone over existing state (the overlay path).
  PageTable over_pt;
  ref::RefPageTable over_rt;
  PteFlags local = FlagsVariant(0);
  over_pt.MapRange(100, 900, local, kNoBacking, 7);
  over_rt.MapRange(100, 900, local, kNoBacking, 7);
  over_pt.CloneFrom(src_pt);
  over_rt.CloneFrom(src_rt);
  ExpectSameTable(over_pt, over_rt);
}

// ---------------------------------------------------------------------------
// ContentMap
// ---------------------------------------------------------------------------

void ExpectSameContent(const ContentMap& cm, const ref::RefContentMap& rm) {
  EXPECT_EQ(cm.stored_pages(), rm.stored_pages());
  EXPECT_EQ(cm.run_count(), rm.run_count());
  std::vector<std::tuple<PoolOffset, uint64_t, PageContent>> a;
  cm.ForEachRun([&](PoolOffset base, uint64_t npages, PageContent content) {
    a.emplace_back(base, npages, content);
  });
  EXPECT_EQ(a, rm.DumpRuns());
}

TEST(FlatStoreEquivalenceTest, ContentMapRandomizedOps) {
  constexpr PoolOffset kSpace = 2048;
  for (uint64_t seed : {3u, 17u, 71u}) {
    Rng rng(seed);
    ContentMap cm;
    ref::RefContentMap rm;
    for (int step = 0; step < 4000; ++step) {
      const PoolOffset page = rng.NextBounded(kSpace);
      const uint64_t npages = 1 + rng.NextBounded(128);
      switch (rng.NextBounded(4)) {
        case 0:
        case 1: {
          const PageContent content = rng.NextBounded(1 << 20);
          cm.Write(page, npages, content);
          rm.Write(page, npages, content);
          break;
        }
        case 2: {
          cm.Erase(page, npages);
          rm.Erase(page, npages);
          break;
        }
        default: {
          const Result<PageContent> a = cm.Read(page);
          const Result<PageContent> b = rm.Read(page);
          ASSERT_EQ(a.ok(), b.ok()) << "page " << page;
          if (a.ok()) {
            EXPECT_EQ(*a, *b) << "page " << page;
          }
          break;
        }
      }
      if (step % 64 == 0) {
        ExpectSameContent(cm, rm);
      }
      if (HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    ExpectSameContent(cm, rm);
  }
}

// ---------------------------------------------------------------------------
// BlockAllocator
// ---------------------------------------------------------------------------

void ExpectSameAllocator(const BlockAllocator& ba, const ref::RefBlockAllocator& ra) {
  EXPECT_EQ(ba.used_pages(), ra.used_pages());
  EXPECT_EQ(ba.free_pages(), ra.free_pages());
  EXPECT_EQ(ba.LargestFreeExtent(), ra.LargestFreeExtent());
  EXPECT_EQ(ba.free_extent_count(), ra.free_extent_count());
  std::vector<std::pair<PoolOffset, uint64_t>> a;
  ba.ForEachFreeExtent([&](PoolOffset base, uint64_t len) { a.emplace_back(base, len); });
  EXPECT_EQ(a, ra.DumpFreeList());
}

TEST(FlatStoreEquivalenceTest, BlockAllocatorRandomizedChurn) {
  constexpr uint64_t kTotal = 1 << 16;
  for (uint64_t seed : {7u, 23u, 59u}) {
    Rng rng(seed);
    BlockAllocator ba(kTotal);
    ref::RefBlockAllocator ra(kTotal);
    std::vector<std::pair<PoolOffset, uint64_t>> live;
    for (int step = 0; step < 4000; ++step) {
      if (live.empty() || rng.NextBool(0.55)) {
        const uint64_t n = 1 + rng.NextBounded(512);
        const Result<PoolOffset> a = ba.Allocate(n);
        const Result<PoolOffset> b = ra.Allocate(n);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
        if (a.ok()) {
          // First-fit must pick the identical extent.
          ASSERT_EQ(*a, *b) << "step " << step;
          live.emplace_back(*a, n);
        }
      } else {
        const size_t idx = rng.NextBounded(live.size());
        const auto [base, n] = live[idx];
        EXPECT_TRUE(ba.Free(base, n).ok());
        EXPECT_TRUE(ra.Free(base, n).ok());
        live[idx] = live.back();
        live.pop_back();
      }
      if (step % 64 == 0) {
        ExpectSameAllocator(ba, ra);
      }
      if (HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    // Pressure mix: most requests exceed the largest free extent (a full
    // tier retried every sweep), so they fail on the allocator's bound
    // without a scan, or rescan when allocations left the bound stale;
    // frees and fitting allocations keep moving it.
    for (int step = 0; step < 4000; ++step) {
      const uint64_t largest = ra.LargestFreeExtent();
      if (rng.NextBool(0.7)) {
        const uint64_t n = largest + 1 + rng.NextBounded(512);
        const Result<PoolOffset> a = ba.Allocate(n);
        ASSERT_FALSE(ra.Allocate(n).ok());
        ASSERT_EQ(a.status().code(), StatusCode::kOutOfMemory) << "step " << step;
      } else if (live.empty() || rng.NextBool(0.5)) {
        // Any size the largest extent still fits: a bound that ever fell
        // below the true largest extent would fail one of these.
        const uint64_t n = 1 + rng.NextBounded(std::max<uint64_t>(largest, 1));
        const Result<PoolOffset> a = ba.Allocate(n);
        const Result<PoolOffset> b = ra.Allocate(n);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
        if (a.ok()) {
          ASSERT_EQ(*a, *b) << "step " << step;
          live.emplace_back(*a, n);
        }
      } else {
        const size_t idx = rng.NextBounded(live.size());
        const auto [base, n] = live[idx];
        EXPECT_TRUE(ba.Free(base, n).ok());
        EXPECT_TRUE(ra.Free(base, n).ok());
        live[idx] = live.back();
        live.pop_back();
      }
      if (step % 64 == 0) {
        ExpectSameAllocator(ba, ra);
      }
      if (HasFatalFailure()) {
        FAIL() << "pressure mix diverged at seed " << seed << " step " << step;
      }
    }
    // Double frees rejected identically, with no state change.
    if (!live.empty()) {
      const auto [base, n] = live.front();
      EXPECT_TRUE(ba.Free(base, n).ok());
      EXPECT_TRUE(ra.Free(base, n).ok());
      EXPECT_FALSE(ba.Free(base, n).ok());
      EXPECT_FALSE(ra.Free(base, n).ok());
    }
    ExpectSameAllocator(ba, ra);
  }
}

// ---------------------------------------------------------------------------
// FairShareCpu
// ---------------------------------------------------------------------------

// One CPU model on its own scheduler, logging every completion as (virtual
// time in ns, task tag) in the order the callbacks fire. A first-generation
// burst whose tag is a multiple of 5 submits one follow-up from inside its
// callback, the way a finished bootstrap hands its invocation back to the
// CPU.
template <typename Cpu>
struct CpuHarness {
  static constexpr uint64_t kFollowUpTag = 1000000;

  explicit CpuHarness(double cores) : cpu(&sched, cores) {}

  CpuTaskId Submit(uint64_t tag, SimDuration work, double weight) {
    return cpu.SubmitWeighted(work, weight, [this, tag, work, weight] {
      completions.emplace_back(sched.now().nanos(), tag);
      if (tag < kFollowUpTag && tag % 5 == 0) {
        Submit(tag + kFollowUpTag, work / 2 + SimDuration::Micros(3), weight);
      }
    });
  }

  EventScheduler sched;
  Cpu cpu;
  std::vector<std::pair<int64_t, uint64_t>> completions;
};

TEST(FlatStoreEquivalenceTest, FairShareCpuRandomizedMix) {
  for (uint64_t seed : {3u, 41u, 977u}) {
    Rng rng(seed);
    const double cores = static_cast<double>(2 + rng.NextBounded(15));
    CpuHarness<FairShareCpu> flat(cores);
    CpuHarness<ref::RefFairShareCpu> ref(cores);
    std::vector<CpuTaskId> submitted;
    uint64_t next_tag = 1;
    // Each phase draws a concurrency target between 1 and 300 and a clock
    // pace, so both the undersubscribed (rate 1) and the deeply overcommitted
    // share are exercised; slow phases let the backlog build up to target.
    uint64_t target = 1;
    uint64_t max_advance_ns = 1;
    size_t peak_runnable = 0;
    for (int step = 0; step < 8000; ++step) {
      if (step % 500 == 0) {
        // Every fourth phase aims for the full 300.
        target = step % 2000 == 1500 ? 300 : 1 + rng.NextBounded(300);
        static constexpr uint64_t kPaces[] = {20000, 400000, 4000000};
        max_advance_ns = kPaces[rng.NextBounded(3)];
      }
      const double roll = rng.NextDouble();
      if (roll < 0.45 && flat.cpu.runnable_count() < target) {
        // Whole and fractional weights; occasionally zero work.
        static constexpr double kWeights[] = {1.0, 1.0, 0.5, 2.0, 0.3, 1.7, 4.0};
        const double weight = rng.NextBool(0.2) ? rng.NextUniform(0.05, 6.0)
                                                : kWeights[rng.NextBounded(7)];
        const SimDuration work =
            rng.NextBool(0.02) ? SimDuration::Zero()
                               : SimDuration(static_cast<int64_t>(1 + rng.NextBounded(20000000)));
        const uint64_t tag = next_tag++;
        const CpuTaskId a = flat.Submit(tag, work, weight);
        const CpuTaskId b = ref.Submit(tag, work, weight);
        ASSERT_EQ(a, b) << "step " << step;
        submitted.push_back(a);
      } else if (roll < 0.60 && !submitted.empty()) {
        // Live, finished and never-issued ids alike.
        const CpuTaskId id = rng.NextBool(0.1) ? submitted.back() + 1 + rng.NextBounded(3)
                                               : submitted[rng.NextBounded(submitted.size())];
        ASSERT_EQ(flat.cpu.Cancel(id), ref.cpu.Cancel(id)) << "step " << step;
      } else if (roll < 0.601) {
        // Crash recovery: the schedulers drop the pending completion first.
        flat.sched.Clear();
        ref.sched.Clear();
        flat.cpu.Reset();
        ref.cpu.Reset();
      } else {
        const SimTime until =
            flat.sched.now() + SimDuration(static_cast<int64_t>(rng.NextBounded(max_advance_ns)));
        flat.sched.RunUntil(until);
        ref.sched.RunUntil(until);
      }
      ASSERT_EQ(flat.sched.now(), ref.sched.now());
      ASSERT_EQ(flat.completions, ref.completions) << "step " << step;
      ASSERT_EQ(flat.cpu.runnable_count(), ref.cpu.runnable_count()) << "step " << step;
      ASSERT_EQ(flat.cpu.current_load(), ref.cpu.current_load()) << "step " << step;
      ASSERT_EQ(flat.cpu.current_utilization(), ref.cpu.current_utilization());
      ASSERT_EQ(flat.cpu.consumed_cpu_seconds(flat.sched.now()),
                ref.cpu.consumed_cpu_seconds(ref.sched.now()))
          << "step " << step;
      peak_runnable = std::max(peak_runnable, flat.cpu.runnable_count());
    }
    flat.sched.RunUntilIdle();
    ref.sched.RunUntilIdle();
    EXPECT_EQ(flat.sched.now(), ref.sched.now());
    EXPECT_EQ(flat.completions, ref.completions);
    EXPECT_EQ(flat.cpu.runnable_count(), 0u);
    EXPECT_EQ(ref.cpu.runnable_count(), 0u);
    EXPECT_EQ(flat.cpu.consumed_cpu_seconds(flat.sched.now()),
              ref.cpu.consumed_cpu_seconds(ref.sched.now()));
    // The mix really reached deep overcommit and finished plenty of bursts.
    EXPECT_GE(peak_runnable, 200u) << "seed " << seed;
    EXPECT_GT(flat.completions.size(), 1000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace trenv
