// Host-time self-profiling and thread-safety of the run_tasks claim-cursor
// pool. The suite name is the TSan gate's filter
// (`--gtest_filter='RunTasksHostprof.*'` in ci.sh): these tests drive the
// pool under live contention on the shared cursor to prove the claim path
// is race-free, every task runs exactly once, and the accounting adds up.
#include "deploy/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace swiftest::deploy {
namespace {

using obs::hostprof::HostProfiler;
using obs::hostprof::ProfData;
using obs::hostprof::TimelineData;

constexpr std::size_t kTasks = 8;
constexpr std::size_t kJobs = 4;

/// A task body with real (if tiny) host time, so busy windows are nonzero.
void spin_task(std::atomic<std::uint64_t>& sink) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(200);
  std::uint64_t x = 1;
  while (std::chrono::steady_clock::now() < until) x = x * 6364136223846793005ull + 1;
  sink.fetch_add(x | 1, std::memory_order_relaxed);
}

TEST(RunTasksHostprof, PoolAccountingAddsUp) {
  HostProfiler prof;
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::atomic<int>> ran(kTasks);
  run_tasks(
      kTasks, kJobs,
      [&](std::size_t task) {
        ran[task].fetch_add(1);
        spin_task(sink);
      },
      &prof);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1) << "task " << t;
  }

  prof.set_run_shape(kTasks, kJobs);
  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1 + kJobs);

  // Calling thread: the pool region and the nested join barrier.
  const TimelineData& main_tl = data.timelines[0];
  bool saw_pool = false;
  bool saw_join = false;
  for (const auto& iv : main_tl.intervals) {
    if (iv.phase == obs::hostprof::kPhasePool) {
      saw_pool = true;
      EXPECT_EQ(iv.depth, 0u);
    }
    if (iv.phase == obs::hostprof::kPhaseJoin) {
      saw_join = true;
      EXPECT_EQ(iv.depth, 1u);
    }
  }
  EXPECT_TRUE(saw_pool);
  EXPECT_TRUE(saw_join);
  EXPECT_FALSE(main_tl.worker.valid) << "pool path: workers own the stats";

  // Workers: stats valid, busy + idle == wall exactly, one pull per claim
  // (each worker's final miss included), and the chunk.run intervals
  // jointly cover every task exactly once — no matter who claimed what.
  std::uint64_t total_chunks = 0;
  std::vector<int> task_seen(kTasks, 0);
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const TimelineData& tl = data.timelines[w];
    ASSERT_TRUE(tl.worker.valid) << "worker tid " << tl.tid;
    EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
    EXPECT_EQ(tl.worker.pulls, tl.worker.chunks + 1) << "the final miss pulls too";
    total_chunks += tl.worker.chunks;
    std::uint64_t busy_from_intervals = 0;
    for (const auto& iv : tl.intervals) {
      ASSERT_EQ(iv.phase, obs::hostprof::kPhaseChunk);
      ASSERT_LT(iv.arg, kTasks);
      ++task_seen[iv.arg];
      busy_from_intervals += iv.dur_ns;
    }
    EXPECT_EQ(tl.intervals.size(), tl.worker.chunks);
    EXPECT_LE(busy_from_intervals, tl.worker.busy_ns);
  }
  EXPECT_EQ(total_chunks, kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(task_seen[t], 1) << "task " << t;
  }

  // The analyzer accepts a real pool profile end to end.
  const auto report = obs::hostprof::analyze_prof(data);
  EXPECT_EQ(report.workers, kJobs);
  EXPECT_EQ(report.slowest_chunks.size(), kTasks);
  EXPECT_GT(report.busy_ns, 0u);
  EXPECT_GT(report.pool_wall_ns, 0u);
}

TEST(RunTasksHostprof, InlinePathRecordsOnMainTimeline) {
  HostProfiler prof;
  std::atomic<std::uint64_t> sink{0};
  run_tasks(3, 1, [&](std::size_t) { spin_task(sink); }, &prof);
  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1u) << "jobs<=1 must not spawn timelines";
  const TimelineData& tl = data.timelines[0];
  ASSERT_TRUE(tl.worker.valid);
  EXPECT_EQ(tl.worker.chunks, 3u);
  EXPECT_EQ(tl.worker.pulls, 4u) << "three claims plus the final miss";
  EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
  std::size_t chunk_runs = 0;
  for (const auto& iv : tl.intervals) {
    if (iv.phase == obs::hostprof::kPhaseChunk) ++chunk_runs;
  }
  EXPECT_EQ(chunk_runs, 3u);
}

TEST(RunTasksHostprof, NullProfilerStillRunsEveryTask) {
  std::vector<std::atomic<int>> ran(kTasks);
  run_tasks(kTasks, kJobs, [&](std::size_t task) { ran[task].fetch_add(1); },
            nullptr);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1) << "task " << t;
  }
}

TEST(RunTasksHostprof, ExceptionStillJoinsAndRethrows) {
  HostProfiler prof;
  EXPECT_THROW(
      run_tasks(
          kTasks, kJobs,
          [&](std::size_t task) {
            if (task == 3) throw std::runtime_error("task 3 boom");
          },
          &prof),
      std::runtime_error);
  // Workers joined: their stats are consistent even on the error path.
  const ProfData data = prof.snapshot();
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const TimelineData& tl = data.timelines[w];
    if (!tl.worker.valid) continue;
    EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
  }
}

// Thousands of near-empty tasks on eight workers keep the shared cursor
// under live contention (the TSan gate's point): each task still runs
// exactly once, and each worker's pulls are its chunks plus one final miss.
TEST(RunTasksHostprof, ManyWorkersTinyTasksExactlyOnce) {
  constexpr std::size_t kTinyTasks = 4096;
  constexpr std::size_t kWorkers = 8;
  HostProfiler prof;
  std::vector<std::atomic<int>> ran(kTinyTasks);
  run_tasks(
      kTinyTasks, kWorkers,
      [&](std::size_t task) { ran[task].fetch_add(1, std::memory_order_relaxed); },
      &prof);
  for (std::size_t t = 0; t < kTinyTasks; ++t) {
    ASSERT_EQ(ran[t].load(), 1) << "task " << t;
  }

  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1 + kWorkers);
  std::uint64_t total_chunks = 0;
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const TimelineData& tl = data.timelines[w];
    ASSERT_TRUE(tl.worker.valid) << "worker tid " << tl.tid;
    EXPECT_EQ(tl.worker.pulls, tl.worker.chunks + 1) << "worker tid " << tl.tid;
    EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
    total_chunks += tl.worker.chunks;
  }
  EXPECT_EQ(total_chunks, kTinyTasks);
}

}  // namespace
}  // namespace swiftest::deploy
