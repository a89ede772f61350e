#include "netsim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/small_fn.hpp"

namespace swiftest::netsim {
namespace {

using core::microseconds;
using core::milliseconds;
using core::seconds;
using core::seconds;

// The per-test detail switch: with detail off the scheduler hands out no
// tracer and no span store (its own sched.fire record included), while the
// Hub still counts metrics; with detail on both are the Hub's.
TEST(Scheduler, DetailSwitchGatesTracerAndSpansNotMetrics) {
  obs::Hub hub;
  Scheduler sched;
  sched.set_obs(&hub, /*detail=*/false);
  EXPECT_EQ(sched.obs(), &hub);
  EXPECT_EQ(sched.tracer(obs::Category::kScheduler), nullptr);
  EXPECT_EQ(sched.spans(), nullptr);
  sched.schedule_in(milliseconds(1), [] {});
  sched.run();
  EXPECT_EQ(hub.tracer.size(), 0u);
  EXPECT_EQ(hub.metrics.snapshot().counters.at("scheduler.events_fired"), 1u);

  sched.set_obs(&hub);
  EXPECT_EQ(sched.tracer(obs::Category::kScheduler), &hub.tracer);
  EXPECT_EQ(sched.spans(), &hub.spans);
  sched.schedule_in(milliseconds(1), [] {});
  sched.run();
  EXPECT_EQ(hub.tracer.size(), 1u);

  sched.set_obs(nullptr);
  EXPECT_EQ(sched.tracer(obs::Category::kScheduler), nullptr);
  EXPECT_EQ(sched.spans(), nullptr);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sched.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sched.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), milliseconds(30));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(milliseconds(10), [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  core::SimTime fired_at = -1;
  sched.schedule_at(milliseconds(5), [&] {
    sched.schedule_in(milliseconds(10), [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, milliseconds(15));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(milliseconds(10), [&] { ++count; });
  sched.schedule_at(milliseconds(20), [&] { ++count; });
  sched.schedule_at(milliseconds(30), [&] { ++count; });
  sched.run_until(milliseconds(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), milliseconds(20));
  sched.run();
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler sched;
  sched.run_until(seconds(5));
  EXPECT_EQ(sched.now(), seconds(5));
  EXPECT_TRUE(sched.idle());
}

TEST(Scheduler, CancelledEventDoesNotRun) {
  Scheduler sched;
  bool ran = false;
  EventHandle h = sched.schedule_at(milliseconds(10), [&] { ran = true; });
  h.cancel();
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  bool ran = false;
  EventHandle h = sched.schedule_at(milliseconds(1), [&] { ran = true; });
  sched.run();
  EXPECT_TRUE(ran);
  h.cancel();  // must not crash
}

TEST(Scheduler, SchedulingInPastThrows) {
  Scheduler sched;
  sched.schedule_at(milliseconds(10), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(milliseconds(5), [] {}), std::invalid_argument);
}

TEST(Scheduler, EventsExecutedCounterSkipsCancelled) {
  Scheduler sched;
  sched.schedule_at(1, [] {});
  EventHandle h = sched.schedule_at(2, [] {});
  h.cancel();
  sched.run();
  EXPECT_EQ(sched.events_executed(), 1u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.schedule_in(milliseconds(1), recurse);
  };
  sched.schedule_at(0, recurse);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.now(), milliseconds(99));
}

TEST(Scheduler, CancelAfterSlotReuseIsNoop) {
  Scheduler sched;
  // Occupy one slot, cancel it, and drain so the slot returns to the free
  // list with a bumped generation.
  EventHandle stale = sched.schedule_at(milliseconds(1), [] {});
  stale.cancel();
  sched.run();
  // The next event reuses that slot under a new generation; the stale
  // handle must not be able to cancel the new occupant.
  bool ran = false;
  EventHandle fresh = sched.schedule_at(milliseconds(2), [&] { ran = true; });
  stale.cancel();
  sched.run();
  EXPECT_TRUE(ran);
  (void)fresh;
}

TEST(Scheduler, SteadyStateChurnDoesNotGrowTheSlab) {
  Scheduler sched;
  const auto churn = [&] {
    std::vector<EventHandle> handles;
    for (int round = 0; round < 50; ++round) {
      handles.clear();
      for (int i = 0; i < 32; ++i) {
        handles.push_back(sched.schedule_in(microseconds(10 + i), [] {}));
      }
      for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
      sched.run();
    }
  };
  churn();  // warm-up sizes the slab for this footprint
  const Scheduler::AllocStats warm = sched.alloc_stats();
  const std::uint64_t fn_heap_before = core::small_fn_heap_allocations();
  churn();  // steady state: same footprint, zero new slots or heap fallbacks
  const Scheduler::AllocStats after = sched.alloc_stats();
  EXPECT_EQ(after.slab_slots, warm.slab_slots);
  EXPECT_EQ(after.callback_heap_fallbacks, warm.callback_heap_fallbacks);
  EXPECT_EQ(core::small_fn_heap_allocations(), fn_heap_before)
      << "scheduler callbacks must fit SmallFn inline storage";
}

TEST(Scheduler, CancelAfterSchedulerDestructionIsNoop) {
  EventHandle h;
  {
    Scheduler sched;
    h = sched.schedule_at(milliseconds(10), [] {});
  }
  h.cancel();  // scheduler is gone: must be a safe no-op, not UB
  EXPECT_TRUE(h.valid());
}

TEST(Scheduler, FiringAnEmptyTaskThrowsBadFunctionCall) {
  Scheduler sched;
  sched.schedule_at(milliseconds(1), Scheduler::Task{});
  EXPECT_THROW(sched.run(), std::bad_function_call);
}

TEST(Scheduler, LateInsertBehindSweepCursorFiresInOrder) {
  // Regression: run_until()'s exit peek sweeps the 100 ms bucket into the
  // calendar's active heap. A subsequent schedule_at() into the gap between
  // now and that bucket must not be parked in a behind-cursor ring bucket
  // (which would fire it a full ~268 ms lap late, after the 100 ms event).
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(milliseconds(100), [&] { order.push_back(100); });
  sched.run_until(milliseconds(1));
  sched.schedule_at(milliseconds(60), [&] { order.push_back(60); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{60, 100}));
  EXPECT_EQ(sched.now(), milliseconds(100));
}

/// Test-side reference for the fire order. Every event is logged just before
/// its schedule_at() with its target time and its scheduling order (a
/// counter of schedule calls, mirroring the scheduler's seq). A new key is
/// never below the last popped (when, seq) — its time is >= now and its seq
/// is the largest yet — so a correct queue fires the non-cancelled events in
/// exactly the sorted (when, scheduling order) of this log.
struct FireOracle {
  struct Scheduled {
    core::SimTime when = 0;
    std::size_t order = 0;
    int id = 0;
    bool cancelled = false;
  };
  std::vector<Scheduled> scheduled;
  std::vector<std::pair<core::SimTime, int>> fired;

  void expect(core::SimTime when, int id) {
    scheduled.push_back({when, scheduled.size(), id});
  }

  /// Callback that records its firing as (now, id).
  [[nodiscard]] auto fire(const Scheduler& sched, int id) {
    return [this, &sched, id] { fired.emplace_back(sched.now(), id); };
  }

  [[nodiscard]] std::vector<std::pair<core::SimTime, int>> sorted_order() const {
    std::vector<Scheduled> live;
    for (const Scheduled& s : scheduled) {
      if (!s.cancelled) live.push_back(s);
    }
    std::sort(live.begin(), live.end(), [](const Scheduled& a, const Scheduled& b) {
      return a.when != b.when ? a.when < b.when : a.order < b.order;
    });
    std::vector<std::pair<core::SimTime, int>> out;
    out.reserve(live.size());
    for (const Scheduled& s : live) out.emplace_back(s.when, s.id);
    return out;
  }
};

TEST(Scheduler, CalendarMatchesHeapUnderInterleavedRunUntil) {
  // External scheduling between run_until() steps: the final peek of each
  // step can sweep a future bucket into the calendar's active heap, so the
  // next external push often lands behind the sweep cursor. The fire
  // sequence must be the sorted reference order exactly, and the clock must
  // never move backwards.
  Scheduler sched;
  core::Rng rng(424242);
  FireOracle oracle;
  int next_id = 0;
  for (int step = 0; step < 300; ++step) {
    const auto pushes = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < pushes; ++k) {
      // Offsets span same-bucket, mid-ring, and beyond-horizon targets.
      const core::SimTime when = sched.now() + rng.uniform_int(0, milliseconds(400));
      const int id = next_id++;
      oracle.expect(when, id);
      sched.schedule_at(when, oracle.fire(sched, id));
    }
    const core::SimTime before = sched.now();
    sched.run_until(sched.now() + rng.uniform_int(0, milliseconds(120)));
    EXPECT_GE(sched.now(), before);
  }
  sched.run();
  ASSERT_FALSE(oracle.fired.empty());
  EXPECT_EQ(oracle.fired.size(), oracle.scheduled.size());
  EXPECT_EQ(oracle.fired, oracle.sorted_order());
}

TEST(Scheduler, CalendarFrontEndMatchesReferenceHeap) {
  // Random churn: uniform and far-future arrivals (beyond the calendar ring,
  // forcing rebase), mid-drain inserts from firing events, and
  // cancellations. The fire sequence — time and id — must be the sorted
  // reference order of every non-cancelled event; duplicate times resolve by
  // scheduling order.
  Scheduler sched;
  core::Rng rng(2022);
  FireOracle oracle;
  std::vector<EventHandle> handles;  // handles[i] belongs to oracle.scheduled[i]
  int next_id = 0;
  for (int i = 0; i < 500; ++i) {
    // Mix of near (same bucket), mid-ring, and far-future (several times the
    // ~268 ms ring horizon) target times; duplicates are common.
    const core::SimTime when = rng.uniform_int(0, seconds(2));
    const int id = next_id++;
    oracle.expect(when, id);
    handles.push_back(sched.schedule_at(when, oracle.fire(sched, id)));
    if (i % 4 == 0) {
      const int child = next_id++;
      oracle.expect(when, child);
      handles.push_back(sched.schedule_at(when, [&oracle, &sched, &rng, &handles, child] {
        oracle.fired.emplace_back(sched.now(), child);
        // Mid-drain insert relative to the firing time: lands in the active
        // bucket or just past it.
        const int grandchild = -child;
        const core::SimDuration delay = rng.uniform_int(0, milliseconds(1));
        oracle.expect(sched.now() + delay, grandchild);
        handles.push_back(sched.schedule_in(delay, oracle.fire(sched, grandchild)));
      }));
    }
  }
  for (std::size_t i = 0; i < handles.size(); i += 5) {
    handles[i].cancel();
    oracle.scheduled[i].cancelled = true;
  }
  sched.run();
  ASSERT_FALSE(oracle.fired.empty());
  EXPECT_EQ(oracle.fired, oracle.sorted_order());
}

TEST(CalendarEventQueue, MatchesReferenceHeapOpForOp) {
  // One push/peek/pop sequence replayed on the calendar and on a plain
  // binary min-heap of keys: every peek and pop must return the same key.
  // A 16-bucket ring of 1024 ns buckets (16.4 us horizon) makes sweeps,
  // rebases and underflow common. Pushes keep the scheduler's contract:
  // never earlier than the last popped time.
  CalendarEventQueue calendar(/*width_shift=*/10, /*bucket_count=*/16);
  EventKeyHeap heap;
  std::uint64_t seq = 0;
  core::SimTime last_popped = 0;
  const auto fields = [](const EventKey& k) { return std::tuple(k.when, k.seq, k.slot); };
  const auto push = [&](core::SimTime when) {
    ASSERT_GE(when, last_popped);
    const EventKey key{when, seq, static_cast<std::uint32_t>(seq % 97)};
    ++seq;
    calendar.push(key);
    heap.push(key);
    ASSERT_EQ(calendar.size(), heap.size());
  };
  const auto peek = [&] {
    EventKey key;
    ASSERT_EQ(calendar.peek(key), !heap.empty());
    if (!heap.empty()) {
      ASSERT_EQ(fields(key), fields(heap.top()));
    }
  };
  const auto pop = [&] {
    ASSERT_FALSE(heap.empty());
    const EventKey key = calendar.pop();
    ASSERT_EQ(fields(key), fields(heap.top()));
    heap.pop();
    last_popped = key.when;
    ASSERT_EQ(calendar.empty(), heap.empty());
  };

  // Peek, then push behind the sweep cursor: the peek swept the bucket at
  // 10 us into the active heap, so the 6 us key lands below the watermark.
  push(10'000);
  peek();
  push(6'000);
  pop();
  EXPECT_EQ(last_popped, 6'000);
  pop();
  EXPECT_EQ(last_popped, 10'000);

  // Beyond-horizon rebase: the peek jumps the window to the far key, and a
  // push between the last popped time and the new base is an underflow.
  push(1'000'000);
  peek();
  push(20'000);
  push(1'000'000);  // same time as the far key, later in scheduling order
  pop();
  EXPECT_EQ(last_popped, 20'000);
  pop();
  pop();
  EXPECT_TRUE(calendar.empty());
  EXPECT_GE(calendar.stats().rebases, 1u);
  EXPECT_GE(calendar.stats().far_pushes, 1u);
  EXPECT_GE(calendar.stats().underflow_pushes, 1u);

  // Seeded random churn over near, in-ring and beyond-horizon targets.
  core::Rng rng(77);
  for (int op = 0; op < 20'000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const std::int64_t reach = dice < 0.2 ? 2'048 : dice < 0.4 ? 16'384 : 200'000;
      push(last_popped + rng.uniform_int(0, reach));
    } else if (dice < 0.65) {
      peek();
    } else if (!heap.empty()) {
      pop();
    }
    if (HasFatalFailure()) return;
  }
  while (!heap.empty() && !HasFatalFailure()) pop();
  EXPECT_TRUE(calendar.empty());
}

}  // namespace
}  // namespace swiftest::netsim
