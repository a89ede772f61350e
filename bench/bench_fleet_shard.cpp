// Chunked fleet-day determinism: the packet backend at a fixed chunk size
// under worker pools of 1, 2, 4 and 8 (deploy::FleetSimConfig::jobs) must
// produce byte-identical artifacts. Every reported value is deterministic —
// tests simulated, busy windows, and the artifacts-identical flag — so the
// baseline compare holds on any host. Host-time scaling is measured by
// `tools/ci.sh --scaling-only` from the profiler of its own Release runs.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"
#include "obs/health/report.hpp"

namespace {

using namespace swiftest;

constexpr std::size_t kChunk = 32;
constexpr std::uint64_t kSeed = 5;

struct RunOutcome {
  std::string health_json;
  std::uint64_t tests = 0;
  std::uint64_t busy_windows = 0;

  bool operator==(const RunOutcome&) const = default;
};

RunOutcome run_fleet_day(std::span<const dataset::TestRecord> population,
                         const swift::ModelRegistry& registry, std::size_t jobs) {
  deploy::FleetSimConfig cfg;
  cfg.backend = deploy::FleetBackend::kPacket;
  cfg.server_count = 8;
  cfg.days = 1;
  cfg.tests_per_day = 300.0;
  cfg.seed = kSeed;
  cfg.chunk = kChunk;
  cfg.jobs = jobs;
  obs::health::HealthMonitor health;
  cfg.health = &health;

  const deploy::FleetSimResult result =
      deploy::simulate_fleet(population, registry, cfg);

  RunOutcome outcome;
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

  const auto population = dataset::generate_campaign(10'000, 2021, 3);
  static const swift::ModelRegistry registry;

  benchutil::print_title("Chunked packet fleet-day: artifacts vs worker pool size");
  std::printf("  %-6s %s\n", "jobs", "artifacts");

  const RunOutcome reference = run_fleet_day(population, registry, 1);
  std::printf("  %-6d %s\n", 1, "reference");
  bool identical = true;
  for (const std::size_t jobs : {2, 4, 8}) {
    const bool same = run_fleet_day(population, registry, jobs) == reference;
    identical = identical && same;
    std::printf("  %-6zu %s\n", jobs, same ? "identical" : "DIFFER");
  }
  benchutil::print_note("artifacts must never vary with the worker pool size");

  benchutil::report_value("tests_simulated", static_cast<double>(reference.tests));
  benchutil::report_value("busy_windows", static_cast<double>(reference.busy_windows));
  benchutil::report_value("artifacts_identical", identical ? 1.0 : 0.0);
  return benchutil::report_flush();
}
