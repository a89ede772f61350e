// Bounded observability at fleet scale (DESIGN.md §12): deterministic
// whole-test sampling keyed on the global workload draw index makes the
// sampled trace/span/metrics artifacts a pure function of (seed, workload) —
// byte-identical across chunk sizes and job counts for both backends — and
// the memory budget plans a deterministic degradation schedule (recorded)
// instead of letting the run grow without bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"
#include "obs/export.hpp"
#include "obs/health/report.hpp"
#include "obs/hub.hpp"
#include "obs/resource.hpp"
#include "obs/span/json.hpp"
#include "swiftest/model_registry.hpp"

namespace swiftest::deploy {
namespace {

const std::vector<dataset::TestRecord>& population() {
  static const auto records = dataset::generate_campaign(8'000, 2021, 5);
  return records;
}

struct ObsArtifacts {
  std::string trace;
  std::string spans;
  std::string metrics;
  std::string health;
  std::uint64_t tests = 0;
  std::uint64_t sampled = 0;
  std::uint64_t degradations = 0;
  /// Read back from the spans artifact: its span count, its server.session
  /// spans, and those of them with no parent (orphan roots).
  std::size_t span_count = 0;
  std::size_t sessions = 0;
  std::size_t root_sessions = 0;
};

ObsArtifacts run_fleet(FleetBackend backend, std::size_t chunk, std::size_t jobs,
                       std::uint64_t sample_denominator,
                       std::uint64_t budget_mb = 0) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = backend == FleetBackend::kPacket ? 150.0 : 400.0;
  cfg.seed = 11;
  cfg.backend = backend;
  cfg.chunk = chunk;
  cfg.jobs = jobs;
  cfg.sample.set_denominator(sample_denominator);
  cfg.obs_budget_mb = budget_mb;

  obs::Hub hub;
  obs::health::HealthMonitor health;
  obs::ResourceMonitor monitor;
  cfg.obs = &hub;
  cfg.health = &health;
  cfg.resource = &monitor;

  const FleetSimResult result = simulate_fleet(population(), registry, cfg);

  ObsArtifacts out;
  std::ostringstream trace_out;
  obs::write_trace_jsonl(hub.tracer, trace_out);
  out.trace = trace_out.str();
  std::ostringstream spans_out;
  obs::span::write_spans_json(hub.spans, spans_out);
  out.spans = spans_out.str();
  std::ostringstream metrics_out;
  obs::write_metrics_json(hub.metrics.snapshot(), metrics_out);
  out.metrics = metrics_out.str();
  std::ostringstream health_out;
  obs::health::write_health_json(health.snapshot(), {}, nullptr, health_out);
  out.health = health_out.str();
  out.tests = result.tests_simulated;
  const auto& counters = hub.metrics.snapshot().counters;
  if (const auto it = counters.find("fleet.tests_sampled"); it != counters.end()) {
    out.sampled = it->second;
  }
  for (const obs::ShardTelemetry& t : monitor.shard_telemetry()) {
    out.degradations += t.sample_degradations;
  }
  const auto records = obs::span::parse_spans_json(out.spans);
  EXPECT_TRUE(records.has_value());
  if (records.has_value()) {
    out.span_count = records->size();
    for (const obs::span::SpanData& r : *records) {
      if (r.name != "server.session") continue;
      ++out.sessions;
      if (r.parent == 0) ++out.root_sessions;
    }
  }
  return out;
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(FleetSampling, AnalyticSampledArtifactsByteIdenticalAcrossChunksAndJobs) {
  const ObsArtifacts reference = run_fleet(FleetBackend::kAnalytic, 0, 1, 8);
  ASSERT_GT(reference.tests, 100u);
  // 1/8 sampling keeps a proper, non-empty subset.
  EXPECT_GT(reference.sampled, 0u);
  EXPECT_LT(reference.sampled, reference.tests);
  // Each sampled test contributes exactly fleet.test_start + fleet.test_done.
  EXPECT_EQ(count_lines(reference.trace), 2 * reference.sampled);

  for (const std::size_t chunk : {32u, 64u}) {
    const ObsArtifacts j1 = run_fleet(FleetBackend::kAnalytic, chunk, 1, 8);
    const ObsArtifacts j4 = run_fleet(FleetBackend::kAnalytic, chunk, 4, 8);
    for (const ObsArtifacts* run : {&j1, &j4}) {
      EXPECT_EQ(run->tests, reference.tests);
      EXPECT_EQ(run->sampled, reference.sampled);
      // The whole point: every artifact is a pure function of (config,
      // seed) — the canonical merge erases the partition entirely. That now
      // includes health: chunks hold consecutive draws, so chunk-order
      // replay IS the global draw order and the P² quantile cells see the
      // exact same sample sequence at any chunk size.
      EXPECT_EQ(run->trace, reference.trace) << "chunk=" << chunk;
      EXPECT_EQ(run->spans, reference.spans) << "chunk=" << chunk;
      EXPECT_EQ(run->metrics, reference.metrics) << "chunk=" << chunk;
      EXPECT_EQ(run->health, reference.health) << "chunk=" << chunk;
    }
  }
}

TEST(FleetSampling, AnalyticSampledSubsetChangesWithSeedNotPartition) {
  // Same workload, different seed: the salt selects a different subset
  // (almost surely, at these sizes), so sampling is seed-keyed, not
  // position-keyed.
  const ObsArtifacts a = run_fleet(FleetBackend::kAnalytic, 64, 2, 8);
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 400.0;
  cfg.seed = 12;
  cfg.chunk = 64;
  cfg.jobs = 2;
  cfg.sample.set_denominator(8);
  obs::Hub hub;
  cfg.obs = &hub;
  (void)simulate_fleet(population(), registry, cfg);
  std::ostringstream trace_out;
  obs::write_trace_jsonl(hub.tracer, trace_out);
  EXPECT_NE(trace_out.str(), a.trace);
}

TEST(FleetSampling, DisabledSamplingLeavesAnalyticRunUninstrumented) {
  // Keep-everything (1/1) with no budget preserves the legacy contract: the
  // analytic backend emits no per-test traces or spans at all, so existing
  // artifacts cannot shift.
  const ObsArtifacts run = run_fleet(FleetBackend::kAnalytic, 64, 2, 1);
  EXPECT_EQ(run.sampled, 0u);
  EXPECT_TRUE(run.trace.empty());
}

TEST(FleetSampling, BudgetDegradesSamplingInsteadOfGrowing) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 6000.0;  // past the 4096-arrival budget checkpoint
  cfg.seed = 11;
  cfg.sample.set_denominator(2);
  cfg.obs_budget_mb = 1;  // far below the trace ring's ~10 MB
  obs::Hub hub;
  obs::ResourceMonitor monitor;
  cfg.obs = &hub;
  cfg.resource = &monitor;

  const FleetSimResult result = simulate_fleet(population(), registry, cfg);
  ASSERT_GT(result.tests_simulated, 4096u);
  std::uint64_t degradations = 0;
  for (const obs::ShardTelemetry& t : monitor.shard_telemetry()) {
    degradations += t.sample_degradations;
  }
  // Over budget at the checkpoint: the denominator doubled (recorded),
  // rather than the run refusing or growing without bound.
  EXPECT_GE(degradations, 1u);

  // Degradation only thins the FUTURE sample; the run completes and the
  // artifact stays a valid 2-events-per-sampled-test stream.
  const auto& counters = hub.metrics.snapshot().counters;
  const auto it = counters.find("fleet.tests_sampled");
  ASSERT_NE(it, counters.end());
  std::ostringstream trace_out;
  obs::write_trace_jsonl(hub.tracer, trace_out);
  EXPECT_EQ(count_lines(trace_out.str()), 2 * it->second);
}

TEST(FleetSampling, PacketSampledArtifactsIndependentOfJobsAndSuppressOrphans) {
  const ObsArtifacts serial = run_fleet(FleetBackend::kPacket, 32, 1, 4);
  ASSERT_GT(serial.tests, 50u);
  EXPECT_GT(serial.sampled, 0u);
  EXPECT_LT(serial.sampled, serial.tests);
  // Unsampled tests never begin their server sessions, and every kept
  // session joins its client's test tree: no orphan roots.
  EXPECT_GT(serial.sessions, 0u);
  EXPECT_EQ(serial.root_sessions, 0u);
  EXPECT_NE(serial.spans.find("swiftest.test"), std::string::npos);

  // Tests record straight into their chunk's hub, so the chunk size decides
  // which tests share a store: the sampled bytes must not notice.
  for (const std::size_t chunk : {16u, 32u}) {
    const ObsArtifacts threaded = run_fleet(FleetBackend::kPacket, chunk, 4, 4);
    EXPECT_EQ(serial.tests, threaded.tests) << "chunk=" << chunk;
    EXPECT_EQ(serial.sampled, threaded.sampled) << "chunk=" << chunk;
    EXPECT_EQ(serial.trace, threaded.trace) << "chunk=" << chunk;
    EXPECT_EQ(serial.spans, threaded.spans) << "chunk=" << chunk;
    EXPECT_EQ(serial.metrics, threaded.metrics) << "chunk=" << chunk;
    EXPECT_EQ(serial.health, threaded.health) << "chunk=" << chunk;
  }
}

TEST(FleetSpill, PacketTestOverflowSpillsInsteadOfDropping) {
  // A 16-event ring is far smaller than one test's protocol trace. With a
  // spill directory every overflow rotates to disk, down to the events of a
  // single test: tests record into their chunk's hub, whose ring carries the
  // spill sink, so nothing is dropped.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fleet_spill_packet";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 40.0;
  cfg.seed = 11;
  cfg.backend = FleetBackend::kPacket;
  cfg.chunk = 8;
  cfg.obs_spill_dir = dir.string();
  obs::Hub hub(/*trace_capacity=*/16);
  hub.tracer.set_category_mask(static_cast<std::uint32_t>(obs::Category::kProtocol));
  cfg.obs = &hub;

  const FleetSimResult result = simulate_fleet(population(), registry, cfg);
  ASSERT_GT(result.tests_simulated, 10u);
  EXPECT_EQ(hub.tracer.dropped(), 0u);
  EXPECT_GT(hub.tracer.spilled(), 0u);
  EXPECT_GT(result.spill_trace_segments, 0u);
  EXPECT_TRUE(result.spill_ok);
  std::filesystem::remove_all(dir);
}

TEST(FleetSpill, CallerHubDropsAfterSpillRunReturns) {
  // The run's spill writers die with the run. Recording into the caller's
  // hub afterwards must drop at capacity, not rotate through a sink that
  // points at a freed writer.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fleet_spill_detach";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 20.0;
  cfg.seed = 12;
  cfg.backend = FleetBackend::kPacket;
  cfg.obs_spill_dir = dir.string();
  obs::Hub hub(/*trace_capacity=*/16, /*span_capacity=*/16);
  hub.tracer.set_category_mask(static_cast<std::uint32_t>(obs::Category::kProtocol));
  cfg.obs = &hub;

  const FleetSimResult result = simulate_fleet(population(), registry, cfg);
  ASSERT_GT(result.tests_simulated, 5u);
  ASSERT_GT(hub.tracer.spilled(), 0u);

  const std::uint64_t trace_spilled = hub.tracer.spilled();
  const std::uint64_t trace_dropped = hub.tracer.dropped();
  const std::uint64_t span_spilled = hub.spans.spilled();
  const std::uint64_t span_dropped = hub.spans.dropped();
  for (int i = 0; i < 64; ++i) {
    hub.tracer.record(i, obs::Category::kProtocol, obs::EventKind::kInstant,
                      "after.run", static_cast<std::uint64_t>(i), 0.0);
    hub.spans.end(hub.spans.begin(i, obs::Category::kProtocol, "after.run"), i);
  }
  EXPECT_EQ(hub.tracer.spilled(), trace_spilled);
  EXPECT_GT(hub.tracer.dropped(), trace_dropped);
  EXPECT_EQ(hub.spans.spilled(), span_spilled);
  EXPECT_GT(hub.spans.dropped(), span_dropped);
  std::filesystem::remove_all(dir);
}

TEST(FleetSampling, PacketUnsampledTestsRecordNoTraceEvents) {
  // A denominator this large keeps none of ~150 draws: every test is
  // unsampled, so no per-test event (netsim, protocol or fleet instant) may
  // reach the trace, and no span (fleet.test, client stages or server
  // sessions) may reach the spans artifact. Only the merge-time egress
  // series remains.
  const ObsArtifacts run = run_fleet(FleetBackend::kPacket, 32, 1, 1ull << 40);
  ASSERT_GT(run.tests, 50u);
  EXPECT_EQ(run.sampled, 0u);
  std::istringstream lines(run.trace);
  std::size_t egress = 0;
  std::size_t other = 0;
  std::string first_other;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"fleet.egress_util\"") != std::string::npos) {
      ++egress;
    } else if (other++ == 0) {
      first_other = line;
    }
  }
  EXPECT_GT(egress, 0u);
  EXPECT_EQ(other, 0u) << "first: " << first_other;
  EXPECT_EQ(run.span_count, 0u) << run.spans;
}

}  // namespace
}  // namespace swiftest::deploy
