// Resource self-telemetry (obs/resource.hpp): deterministic per-shard
// counters aggregate and export separately from host measurements (RSS,
// wall time).
#include "obs/resource.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/health/report.hpp"
#include "obs/metrics.hpp"

namespace swiftest::obs {
namespace {

TEST(ReadResourceUsage, ReportsLiveProcessMemoryOnLinux) {
  const ResourceUsage usage = read_resource_usage();
  // /proc is available on every platform this repo targets; a running test
  // binary resides in more than 1 MB.
  EXPECT_GT(usage.rss_mb, 1.0);
  // Peak is clamped to at least the current reading.
  EXPECT_GE(usage.peak_rss_mb, usage.rss_mb);
}

TEST(ResourceMonitor, ProgressSideCountsTestsAndShards) {
  ResourceMonitor monitor;
  monitor.begin_run(4);
  monitor.add_tests(100);
  monitor.add_tests(25);
  monitor.note_shard_done();
  EXPECT_EQ(monitor.tests_done(), 125u);
  EXPECT_EQ(monitor.shards_done(), 1u);

  const std::string line = monitor.progress_line();
  EXPECT_NE(line.find("125 tests"), std::string::npos) << line;
  EXPECT_NE(line.find("shards 1/4"), std::string::npos) << line;
  EXPECT_NE(line.find("rss"), std::string::npos) << line;

  // begin_run resets the counters for the next run.
  monitor.begin_run(2);
  EXPECT_EQ(monitor.tests_done(), 0u);
  EXPECT_EQ(monitor.shards_done(), 0u);
}

ShardTelemetry make_shard(std::size_t shard) {
  ShardTelemetry t;
  t.shard = shard;
  t.wall_seconds = 0.5;
  t.tests = 10;
  t.events_executed = 1000;
  t.slab_slots = 32;
  t.transit_nodes = 64;
  t.transit_peak_live = 48;
  t.calendar_sweeps = 7;
  t.trace_dropped = 3;
  t.sample_degradations = 1;
  return t;
}

TEST(ResourceMonitor, ShardTelemetryAggregates) {
  ResourceMonitor monitor;
  monitor.begin_run(2);
  monitor.record_shard(make_shard(0));
  monitor.record_shard(make_shard(1));
  monitor.finish_run(1.25);

  const auto shards = monitor.shard_telemetry();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].shard, 0u);
  EXPECT_EQ(shards[1].tests, 10u);

  health::ReportMeta meta;
  monitor.append_report_meta(meta);
  const auto find = [&meta](const std::string& key) -> std::string {
    for (const auto& [k, v] : meta) {
      if (k == key) return v;
    }
    return "<missing>";
  };
  EXPECT_EQ(find("obs.wall_s"), "1.250");
  EXPECT_EQ(find("obs.shard_wall_s"), "0.500,0.500");
  EXPECT_EQ(find("obs.events_executed"), "2000");
  EXPECT_EQ(find("obs.slab_slots"), "64");
  EXPECT_EQ(find("obs.transit_peak_live"), "96");
  EXPECT_EQ(find("obs.calendar_sweeps"), "14");
  EXPECT_EQ(find("obs.sample_degradations"), "2");
  EXPECT_NE(find("obs.peak_rss_mb"), "<missing>");
}

TEST(ResourceMonitor, ExportMetricsWritesOnlyNonzeroCounters) {
  ResourceMonitor monitor;
  monitor.begin_run(1);
  ShardTelemetry t;
  t.slab_slots = 5;
  t.calendar_sweeps = 9;
  monitor.record_shard(t);

  MetricsRegistry metrics;
  monitor.export_metrics(metrics);
  const MetricsSnapshot snapshot = metrics.snapshot();
  std::uint64_t slab = 0;
  std::uint64_t sweeps = 0;
  for (const auto& [name, value] : snapshot.counters) {
    // Zero-valued telemetry must not appear at all: runs that never touch a
    // subsystem keep byte-identical metrics artifacts.
    EXPECT_NE(value, 0u) << name;
    if (name == "obs.resource.slab_slots") slab = value;
    if (name == "obs.resource.calendar_sweeps") sweeps = value;
  }
  EXPECT_EQ(slab, 5u);
  EXPECT_EQ(sweeps, 9u);
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_EQ(name.find("obs.resource.transit"), std::string::npos)
        << "zero transit telemetry must stay absent: " << name;
  }
}

TEST(ResourceMonitor, PeakRssTracksSamples) {
  ResourceMonitor monitor;
  monitor.begin_run(1);
  const ResourceUsage usage = monitor.sample_usage();
  EXPECT_GE(monitor.peak_rss_mb(), usage.rss_mb);
}

}  // namespace
}  // namespace swiftest::obs
