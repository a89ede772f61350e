#include "deploy/exec.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace swiftest::deploy {

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void run_tasks(std::size_t task_count, std::size_t jobs,
               const std::function<void(std::size_t)>& fn,
               obs::hostprof::HostProfiler* prof) {
  using obs::hostprof::HostScope;
  using obs::hostprof::Timeline;
  using obs::hostprof::WorkerStats;

  if (task_count == 0) return;
  const std::size_t workers = jobs <= 1 ? 1 : (jobs < task_count ? jobs : task_count);
  // Worker timelines must exist before the pool spawns: thread creation is
  // the happens-before edge that lets each worker record lock-free.
  if (prof != nullptr && workers > 1) prof->reserve_workers(workers);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // The one claim-and-account loop, run by every pool worker or inline by
  // the calling thread. The fetch_add alone makes each claim exclusive;
  // results reach the caller through the join, so relaxed order suffices.
  const auto claim_all = [&](Timeline* tl) {
    WorkerStats stats;
    const std::uint64_t t_start = tl != nullptr ? tl->now_ns() : 0;
    for (;;) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      ++stats.pulls;
      if (task >= task_count) break;
      const std::uint64_t t0 = tl != nullptr ? tl->now_ns() : 0;
      try {
        const HostScope task_scope(tl, obs::hostprof::kPhaseChunk, task);
        fn(task);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (tl != nullptr) stats.busy_ns += tl->now_ns() - t0;
      ++stats.chunks;
    }
    if (tl != nullptr) {
      stats.valid = true;
      stats.wall_ns = tl->now_ns() - t_start;
      stats.idle_ns = stats.wall_ns > stats.busy_ns ? stats.wall_ns - stats.busy_ns : 0;
      tl->set_worker_stats(stats);
    }
  };

  Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
  const HostScope pool_scope(main_tl, obs::hostprof::kPhasePool);
  if (workers == 1) {
    // Inline path: the calling thread is the only worker, so its stats land
    // on timeline 0 alongside the pool region itself.
    claim_all(main_tl);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      pool.emplace_back(claim_all, prof != nullptr ? &prof->worker(i) : nullptr);
    }
    const HostScope join_scope(main_tl, obs::hostprof::kPhaseJoin);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace swiftest::deploy
