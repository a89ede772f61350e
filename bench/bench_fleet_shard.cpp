// Chunked fleet-day scaling: wall-clock of the packet backend at a fixed
// chunk size as the worker pool grows (deploy::FleetSimConfig::jobs),
// plus the determinism contract that makes the parallelism safe to use —
// every job count must produce byte-identical artifacts.
//
// Wall-clock numbers are host-dependent, so they are reported as numeric
// values alongside the host's hardware thread count (a config key);
// tools/bench_compare.py only compares the scaling values between runs from
// hosts with the same hw_threads (> 1) and always gates the deterministic
// quantities: tests simulated, busy windows, and the artifacts-identical
// flag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"
#include "obs/health/report.hpp"
#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace {

using namespace swiftest;

constexpr std::size_t kChunk = 32;
constexpr std::uint64_t kSeed = 5;

struct RunOutcome {
  double seconds = 0.0;
  std::string health_json;
  std::uint64_t tests = 0;
  std::uint64_t busy_windows = 0;
};

RunOutcome run_fleet_day(std::span<const dataset::TestRecord> population,
                         const swift::ModelRegistry& registry, std::size_t jobs,
                         obs::hostprof::HostProfiler* prof = nullptr) {
  deploy::FleetSimConfig cfg;
  cfg.backend = deploy::FleetBackend::kPacket;
  cfg.server_count = 8;
  cfg.days = 1;
  cfg.tests_per_day = 300.0;
  cfg.seed = kSeed;
  cfg.chunk = kChunk;
  cfg.jobs = jobs;
  cfg.hostprof = prof;
  obs::health::HealthMonitor health;
  cfg.health = &health;

  const auto start = std::chrono::steady_clock::now();
  const deploy::FleetSimResult result =
      deploy::simulate_fleet(population, registry, cfg);
  const auto end = std::chrono::steady_clock::now();

  RunOutcome outcome;
  outcome.seconds = std::chrono::duration<double>(end - start).count();
  std::ostringstream health_out;
  obs::health::write_health_json(health.snapshot(), {}, nullptr, health_out);
  outcome.health_json = health_out.str();
  outcome.tests = result.tests_simulated;
  outcome.busy_windows = result.busy_window_utilization.size();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::report_init(argc, argv, "fleet_shard");
  benchutil::report_config("backend", "packet");
  benchutil::report_config("chunk", std::to_string(kChunk));
  benchutil::report_config("seed", std::to_string(kSeed));
  benchutil::report_config("hw_threads",
                           std::to_string(std::thread::hardware_concurrency()));

  const auto population = dataset::generate_campaign(10'000, 2021, 3);
  static const swift::ModelRegistry registry;

  benchutil::print_title("Chunked packet fleet-day: wall-clock vs worker pool size");
  std::printf("  %-6s %-10s %-9s %s\n", "jobs", "seconds", "speedup", "artifacts");

  const std::vector<std::size_t> job_counts = {1, 2, 4, 8};
  std::vector<RunOutcome> outcomes;
  bool identical = true;
  obs::hostprof::ProfData widest_prof;
  for (std::size_t jobs : job_counts) {
    // Every run self-profiles (the overhead is per chunk, not per test); the
    // widest pool's attribution is printed below — it names what bounds the
    // jobs-8 speedup, the roadmap's open scaling question.
    obs::hostprof::HostProfiler prof;
    outcomes.push_back(run_fleet_day(population, registry, jobs, &prof));
    prof.finish();
    if (jobs == job_counts.back()) widest_prof = prof.snapshot();
    const RunOutcome& o = outcomes.back();
    const bool same = o.health_json == outcomes.front().health_json &&
                      o.tests == outcomes.front().tests &&
                      o.busy_windows == outcomes.front().busy_windows;
    identical = identical && same;
    std::printf("  %-6zu %-10.3f %-9.2f %s\n", jobs, o.seconds,
                outcomes.front().seconds / o.seconds, same ? "identical" : "DIFFER");
  }
  benchutil::print_note(
      "wall-clock scales with available cores; artifacts must never vary");

  // Host-time attribution of the widest run. Informational only: these are
  // host-dependent numbers, so none of them become gated report values.
  benchutil::print_title("Host-time attribution (jobs=8)");
  obs::hostprof::write_prof_report_markdown(
      obs::hostprof::analyze_prof(widest_prof), std::cout);

  // Per-worker imbalance attribution: how many chunks each worker executed,
  // and how far the busiest worker sits above the mean.
  benchutil::print_title("Per-worker imbalance attribution (jobs=8)");
  {
    std::uint64_t busy_sum = 0;
    std::uint64_t busy_max = 0;
    std::size_t workers = 0;
    for (const auto& tl : widest_prof.timelines) {
      if (tl.tid == 0 || !tl.worker.valid) continue;
      ++workers;
      busy_sum += tl.worker.busy_ns;
      busy_max = std::max(busy_max, tl.worker.busy_ns);
      const double busy_pct = tl.worker.wall_ns > 0
                                  ? 100.0 * static_cast<double>(tl.worker.busy_ns) /
                                        static_cast<double>(tl.worker.wall_ns)
                                  : 0.0;
      std::printf("  w%-3llu busy %6.1f%%  chunks %-4llu pulls %llu\n",
                  static_cast<unsigned long long>(tl.tid), busy_pct,
                  static_cast<unsigned long long>(tl.worker.chunks),
                  static_cast<unsigned long long>(tl.worker.pulls));
    }
    if (workers > 0 && busy_sum > 0) {
      const double imbalance = static_cast<double>(busy_max) * workers /
                               static_cast<double>(busy_sum);
      std::printf("  busy-time imbalance (max/mean): %.2f\n", imbalance);
    }
  }

  // The gated (deterministic) values: same code + same seed => same numbers
  // on any host, any core count.
  benchutil::report_value("tests_simulated",
                          static_cast<double>(outcomes.front().tests));
  benchutil::report_value("busy_windows",
                          static_cast<double>(outcomes.front().busy_windows));
  benchutil::report_value("artifacts_identical", identical ? 1.0 : 0.0);
  // Host-dependent scaling values: bench_compare.py skips these (with a
  // warning) unless both runs report the same hw_threads config and the
  // host actually has more than one hardware thread.
  for (std::size_t i = 0; i < job_counts.size(); ++i) {
    benchutil::report_value("wall_s_jobs" + std::to_string(job_counts[i]),
                            outcomes[i].seconds);
  }
  benchutil::report_value("speedup_jobs8",
                          outcomes.front().seconds / outcomes.back().seconds);
  return benchutil::report_flush();
}
