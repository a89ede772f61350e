// Observability volume: what full vs sampled instrumentation records on a
// packet fleet-day (DESIGN.md §12). Two runs of the same workload — full
// retention and 1/8 deterministic sampling — report the deterministic record
// counts side by side, so the baseline gate pins the volume sampling removes
// (retained and dropped trace events, spans) and that no kept server session
// is an orphan root.
// Host-time cost is perfbench's job (`fleet_observed` vs `fleet_day`).
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"
#include "obs/hub.hpp"

namespace {

using namespace swiftest;

constexpr std::uint64_t kSeed = 7;

struct ObsOutcome {
  std::uint64_t tests = 0;
  std::uint64_t trace_retained = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t spans = 0;
  std::uint64_t root_sessions = 0;  // server.session spans with no parent
  std::uint64_t tests_sampled = 0;
};

ObsOutcome run_fleet_day(std::span<const dataset::TestRecord> population,
                         const swift::ModelRegistry& registry,
                         std::uint64_t sample_denominator) {
  deploy::FleetSimConfig cfg;
  cfg.backend = deploy::FleetBackend::kPacket;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 150.0;
  cfg.seed = kSeed;
  cfg.chunk = 64;
  obs::Hub hub;
  cfg.obs = &hub;
  cfg.sample.set_denominator(sample_denominator);

  const deploy::FleetSimResult result =
      deploy::simulate_fleet(population, registry, cfg);

  ObsOutcome outcome;
  outcome.tests = result.tests_simulated;
  outcome.trace_retained = hub.tracer.size();
  outcome.trace_dropped = hub.tracer.dropped();
  outcome.spans = hub.spans.size();
  for (const obs::span::SpanRecord& r : hub.spans.spans()) {
    if (r.parent == obs::span::kNoSpan && std::strcmp(r.name, "server.session") == 0) {
      ++outcome.root_sessions;
    }
  }
  const auto counters = hub.metrics.snapshot().counters;
  if (const auto it = counters.find("fleet.tests_sampled"); it != counters.end()) {
    outcome.tests_sampled = it->second;
  }
  return outcome;
}

void print_row(const char* mode, const ObsOutcome& o) {
  std::printf("  %-6s %-11llu %-11llu %-8llu %llu\n", mode,
              static_cast<unsigned long long>(o.trace_retained),
              static_cast<unsigned long long>(o.trace_dropped),
              static_cast<unsigned long long>(o.spans),
              static_cast<unsigned long long>(o.root_sessions));
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::report_init(argc, argv, "obs_overhead");
  benchutil::report_config("backend", "packet");
  benchutil::report_config("seed", std::to_string(kSeed));
  benchutil::report_config("sample", "1/8");

  const auto population = dataset::generate_campaign(10'000, 2021, 3);
  static const swift::ModelRegistry registry;

  benchutil::print_title("Observability volume: packet fleet-day, full vs 1/8");
  const ObsOutcome full = run_fleet_day(population, registry, 1);
  const ObsOutcome sampled = run_fleet_day(population, registry, 8);

  std::printf("  %-6s %-11s %-11s %-8s %s\n", "mode", "trace_kept", "trace_drop",
              "spans", "root_sessions");
  print_row("full", full);
  print_row("1/8", sampled);

  // Deterministic volumes, compared exactly (tolerance 0) against the
  // committed baseline, so a change to what instrumentation emits (or what
  // sampling keeps) is visible. Root sessions must stay 0: an unsampled
  // test's server sessions are never begun, and a kept one joins its test.
  benchutil::report_value("tests_simulated", static_cast<double>(full.tests));
  benchutil::report_value("full_trace_retained", static_cast<double>(full.trace_retained));
  benchutil::report_value("full_trace_dropped", static_cast<double>(full.trace_dropped));
  benchutil::report_value("full_spans", static_cast<double>(full.spans));
  benchutil::report_value("sampled_trace_retained",
                          static_cast<double>(sampled.trace_retained));
  benchutil::report_value("sampled_trace_dropped",
                          static_cast<double>(sampled.trace_dropped));
  benchutil::report_value("sampled_spans", static_cast<double>(sampled.spans));
  benchutil::report_value("sampled_root_sessions",
                          static_cast<double>(sampled.root_sessions));
  benchutil::report_value("sampled_tests", static_cast<double>(sampled.tests_sampled));
  return benchutil::report_flush();
}
