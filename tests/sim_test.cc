// Tests for the discrete-event core: scheduler and processor-sharing CPU.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/event_scheduler.h"

namespace trenv {
namespace {

TEST(EventSchedulerTest, RunsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(SimTime(30), [&] { order.push_back(3); });
  sched.ScheduleAt(SimTime(10), [&] { order.push_back(1); });
  sched.ScheduleAt(SimTime(20), [&] { order.push_back(2); });
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime(30));
}

TEST(EventSchedulerTest, SameInstantRunsInScheduleOrder) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(SimTime(100), [&order, i] { order.push_back(i); });
  }
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventSchedulerTest, CancelPreventsExecution) {
  EventScheduler sched;
  bool ran = false;
  EventId id = sched.ScheduleAfter(SimDuration::Millis(1), [&] { ran = true; });
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));  // double cancel
  sched.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(EventSchedulerTest, EventsCanScheduleEvents) {
  EventScheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) {
      sched.ScheduleAfter(SimDuration::Millis(10), tick);
    }
  };
  sched.ScheduleAfter(SimDuration::Millis(10), tick);
  sched.RunUntilIdle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.now(), SimTime(SimDuration::Millis(50).nanos()));
}

TEST(EventSchedulerTest, RunUntilStopsAtBoundary) {
  EventScheduler sched;
  int count = 0;
  sched.ScheduleAt(SimTime(10), [&] { ++count; });
  sched.ScheduleAt(SimTime(20), [&] { ++count; });
  sched.RunUntil(SimTime(15));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), SimTime(15));
  sched.RunUntilIdle();
  EXPECT_EQ(count, 2);
}

TEST(EventSchedulerTest, SameInstantOrderSurvivesCancellation) {
  // Cancelling an interleaved subset of same-instant events must not perturb
  // the insertion order of the survivors (the heap tie-breaks on sequence
  // number, and tombstones are skipped at pop).
  EventScheduler sched;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sched.ScheduleAt(SimTime(100), [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) {
    EXPECT_TRUE(sched.Cancel(ids[i]));
  }
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(EventSchedulerTest, CancelThenRescheduleKeepsDeterministicOrder) {
  // The keep-alive pattern: cancel a pending timer and re-arm it. The new
  // event must run in the order implied by its (time, new insertion index),
  // not by any recycled identity of the cancelled one.
  EventScheduler sched;
  std::vector<int> order;
  EventId timer = sched.ScheduleAt(SimTime(50), [&] { order.push_back(1); });
  sched.ScheduleAt(SimTime(50), [&] { order.push_back(2); });
  EXPECT_TRUE(sched.Cancel(timer));
  sched.ScheduleAt(SimTime(50), [&] { order.push_back(3); });  // re-armed after event 2
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(EventSchedulerTest, StaleIdDoesNotCancelRecycledSlot) {
  // After heavy cancel/reschedule churn, internal slots are recycled; an
  // EventId from a previous occupant must never cancel the new one.
  EventScheduler sched;
  bool ran = false;
  EventId old_id = sched.ScheduleAt(SimTime(10), [] {});
  EXPECT_TRUE(sched.Cancel(old_id));
  // The new event likely reuses the old slot; the stale id must stay dead.
  EventId new_id = sched.ScheduleAt(SimTime(10), [&] { ran = true; });
  EXPECT_FALSE(sched.Cancel(old_id));
  EXPECT_NE(old_id, new_id);
  sched.RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST(EventSchedulerTest, RunUntilBoundaryWithCancelledHead) {
  // RunUntil must not stop early (or advance time past t) when the earliest
  // heap entries are tombstones.
  EventScheduler sched;
  int count = 0;
  EventId head = sched.ScheduleAt(SimTime(5), [&] { ++count; });
  sched.ScheduleAt(SimTime(10), [&] { ++count; });
  sched.ScheduleAt(SimTime(20), [&] { ++count; });
  EXPECT_TRUE(sched.Cancel(head));
  sched.RunUntil(SimTime(15));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), SimTime(15));
  EXPECT_TRUE(sched.HasPending());
  sched.RunUntilIdle();
  EXPECT_EQ(count, 2);
}

TEST(EventSchedulerTest, RunUntilAtExactEventTimeRunsTheEvent) {
  EventScheduler sched;
  int count = 0;
  sched.ScheduleAt(SimTime(10), [&] { ++count; });
  sched.ScheduleAt(SimTime(11), [&] { ++count; });
  sched.RunUntil(SimTime(10));  // inclusive boundary
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), SimTime(10));
}

TEST(EventSchedulerTest, CancelChurnKeepsPendingCountExact) {
  // Long-lived keep-alive timers that are almost always cancelled: the
  // scheduler must report only live events and eventually run exactly the
  // survivors, regardless of internal tombstone compaction.
  EventScheduler sched;
  int ran = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back(sched.ScheduleAfter(SimDuration::Minutes(10 + i), [&] { ++ran; }));
    }
    // Cancel all but the last of this round's batch.
    for (size_t i = 0; i + 1 < batch.size(); ++i) {
      EXPECT_TRUE(sched.Cancel(batch[i]));
    }
    EXPECT_EQ(sched.pending_count(), static_cast<size_t>(round + 1));
  }
  EXPECT_TRUE(sched.HasPending());
  sched.RunUntilIdle();
  EXPECT_EQ(ran, 100);
  EXPECT_FALSE(sched.HasPending());
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(FairShareCpuTest, SingleTaskRunsAtFullSpeed) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 4);
  SimTime done;
  cpu.Submit(SimDuration::Seconds(2), [&] { done = sched.now(); });
  sched.RunUntilIdle();
  EXPECT_EQ(done, SimTime(SimDuration::Seconds(2).nanos()));
}

TEST(FairShareCpuTest, ContentionSlowsTasksDown) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 1);
  std::vector<double> finish_s;
  for (int i = 0; i < 2; ++i) {
    cpu.Submit(SimDuration::Seconds(1), [&] { finish_s.push_back(sched.now().seconds()); });
  }
  sched.RunUntilIdle();
  ASSERT_EQ(finish_s.size(), 2u);
  // Two equal 1s tasks sharing one core both finish at ~2s.
  EXPECT_NEAR(finish_s[0], 2.0, 1e-6);
  EXPECT_NEAR(finish_s[1], 2.0, 1e-6);
}

TEST(FairShareCpuTest, NoContentionBelowCoreCount) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 8);
  std::vector<double> finish_s;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(SimDuration::Seconds(1), [&] { finish_s.push_back(sched.now().seconds()); });
  }
  sched.RunUntilIdle();
  for (double f : finish_s) {
    EXPECT_NEAR(f, 1.0, 1e-6);
  }
}

TEST(FairShareCpuTest, LateArrivalSharesRemainingWork) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 1);
  double first_done = 0;
  double second_done = 0;
  cpu.Submit(SimDuration::Seconds(2), [&] { first_done = sched.now().seconds(); });
  sched.ScheduleAt(SimTime(SimDuration::Seconds(1).nanos()), [&] {
    cpu.Submit(SimDuration::Seconds(1), [&] { second_done = sched.now().seconds(); });
  });
  sched.RunUntilIdle();
  // Task A: 1s alone (1s work done), then shares: each gets 0.5/s. A has 1s
  // left -> done at t=3. B has 1s work, gets 0.5/s until A finishes... both
  // have equal remaining at t=1, so both finish at t=3.
  EXPECT_NEAR(first_done, 3.0, 1e-6);
  EXPECT_NEAR(second_done, 3.0, 1e-6);
}

TEST(FairShareCpuTest, WeightedTaskGetsProportionalShare) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 1);
  double heavy_done = 0;
  double light_done = 0;
  cpu.SubmitWeighted(SimDuration::Seconds(3), 3.0,
                     [&] { heavy_done = sched.now().seconds(); });
  cpu.SubmitWeighted(SimDuration::Seconds(1), 1.0,
                     [&] { light_done = sched.now().seconds(); });
  sched.RunUntilIdle();
  // Heavy gets 3/4 of the core, light 1/4: both need 4 seconds.
  EXPECT_NEAR(heavy_done, 4.0, 1e-6);
  EXPECT_NEAR(light_done, 4.0, 1e-6);
}

TEST(FairShareCpuTest, CancelRemovesTask) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 1);
  bool cancelled_ran = false;
  double other_done = 0;
  CpuTaskId id = cpu.Submit(SimDuration::Seconds(10), [&] { cancelled_ran = true; });
  cpu.Submit(SimDuration::Seconds(1), [&] { other_done = sched.now().seconds(); });
  sched.ScheduleAt(SimTime(SimDuration::Millis(500).nanos()), [&] { cpu.Cancel(id); });
  sched.RunUntilIdle();
  EXPECT_FALSE(cancelled_ran);
  // Other task: 0.5s at half speed (0.25 done), then full speed for 0.75s.
  EXPECT_NEAR(other_done, 1.25, 1e-6);
}

TEST(FairShareCpuTest, UtilizationTracksConsumption) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 2);
  cpu.Submit(SimDuration::Seconds(1), [] {});
  cpu.Submit(SimDuration::Seconds(1), [] {});
  sched.RunUntilIdle();
  EXPECT_NEAR(cpu.consumed_cpu_seconds(sched.now()), 2.0, 1e-6);
}

TEST(FairShareCpuTest, ZeroWorkCompletesImmediately) {
  EventScheduler sched;
  FairShareCpu cpu(&sched, 1);
  bool done = false;
  cpu.Submit(SimDuration::Zero(), [&] { done = true; });
  sched.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(sched.now(), SimTime(0));
}

}  // namespace
}  // namespace trenv
