// The test-keyed execution plane for parallel fleet-days.
//
// A fleet-day no longer partitions into N static shards replayed whole:
// the drawn workload decomposes into bounded chunks of *consecutive* draws,
// and run_tasks executes those chunks on a bounded pool of workers that
// claim them one at a time from a shared cursor. Because every chunk is a
// pure function of (config, seed, chunk index) and the caller merges chunk
// outputs in canonical workload-index order, the schedule — which worker
// ran which chunk, in what order — can never leak into an artifact.
// Imbalance is structurally bounded at chunk granularity: a worker that
// finishes early claims the next unclaimed chunk instead of waiting behind
// a statically-hashed partition.
//
// No task is ever added once the pool starts, so the cursor is one atomic
// index over [0, n): each claim is a fetch_add, and the first claim past
// the end tells a worker that nothing is left for it.
#pragma once

#include <cstddef>
#include <functional>

namespace swiftest::obs::hostprof {
class HostProfiler;
}

namespace swiftest::deploy {

/// Worker threads to use for `jobs`: 0 means the hardware concurrency
/// (minimum 1); anything else is returned unchanged.
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs) noexcept;

/// Runs `fn(task)` exactly once for every task in [0, task_count) on a
/// bounded pool of min(jobs, task_count) threads.
///
/// Workers claim tasks in ascending order from one shared atomic cursor and
/// return after their first claim past the end. jobs <= 1 (or a single
/// task) runs the same claim loop inline on the calling thread. The set of
/// executed tasks is always exactly [0, task_count) — given task-local
/// state, the computed results are independent of scheduling, so callers
/// that merge outputs in task order produce artifacts independent of
/// `jobs`. A task that throws does not stop the others; the first exception
/// is rethrown on the calling thread after every worker has joined.
///
/// When `prof` is non-null the pool self-profiles (host time only):
///   * calling thread: one "exec.run" interval over the parallel region
///     with a nested "pool.join" interval over the joins;
///   * each worker timeline: one "chunk.run" interval per executed task
///     (arg = task index) plus WorkerStats — busy (inside fn), idle
///     (everything else; busy + idle == wall exactly), pulls (claims,
///     including the final miss, so pulls == chunks + 1) and chunks (tasks
///     executed). The inline path records the same on the calling thread's
///     timeline (tid 0). Worker timelines are reserved before spawning.
void run_tasks(std::size_t task_count, std::size_t jobs,
               const std::function<void(std::size_t)>& fn,
               obs::hostprof::HostProfiler* prof = nullptr);

}  // namespace swiftest::deploy
