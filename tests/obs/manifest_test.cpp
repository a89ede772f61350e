// RunManifest serialization round-trip, content hashing, and the semantic
// diff verdicts `obs diff` builds on (DESIGN.md §14).

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/diff/diff.hpp"
#include "obs/export.hpp"
#include "obs/hostprof/report.hpp"
#include "obs/manifest/manifest.hpp"
#include "obs/spill.hpp"

namespace swiftest::obs {
namespace {

// --- content hashing -------------------------------------------------------

TEST(Manifest, Fnv1a64KnownVectors) {
  // Published FNV-1a test vectors: offset basis for "", and "a".
  EXPECT_EQ(manifest::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(manifest::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(manifest::fnv1a64("ab"), manifest::fnv1a64("ba"));
}

TEST(Manifest, ContentHashFormat) {
  const std::string hash = manifest::content_hash("payload");
  ASSERT_EQ(hash.size(), 8u + 16u);
  EXPECT_EQ(hash.substr(0, 8), "fnv1a64:");
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef", 8), std::string::npos);
}

// --- artifact_from_file ----------------------------------------------------

TEST(Manifest, ArtifactFromFileCountsRowsAndHashesContent) {
  const std::string path = ::testing::TempDir() + "/manifest_artifact.jsonl";
  const std::string content = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << content;
  }
  const auto record = manifest::artifact_from_file("health", path);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->name, "health");
  EXPECT_EQ(record->path, path);
  EXPECT_EQ(record->bytes, content.size());
  EXPECT_EQ(record->rows, 3u);
  EXPECT_EQ(record->hash, manifest::content_hash(content));
}

TEST(Manifest, ArtifactFromMissingFileReportsError) {
  std::string error;
  const auto record = manifest::artifact_from_file(
      "health", ::testing::TempDir() + "/does_not_exist.json", &error);
  EXPECT_FALSE(record.has_value());
  EXPECT_FALSE(error.empty());
}

// --- serialization round-trip ----------------------------------------------

manifest::RunManifest sample_manifest() {
  manifest::RunManifest m;
  m.command = "fleet";
  m.build = "deadbeef";
  m.config = {{"backend", "analytic"}, {"seed", "21"}, {"shards", "4"}};
  m.artifacts.push_back({"health", "/tmp/health.json", 120, 1,
                         manifest::content_hash("health-bytes")});
  m.summaries["trace"] = {{"cat.protocol", 10.0}, {"dropped", 0.0},
                          {"events", 42.0}};
  m.summaries["health"] = {{"tests", 100.0}};
  m.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 37.5}};
  m.slos.push_back({"latency", "all", "p95", 1.25, "pass"});
  m.host = {{"jobs", 4.0}, {"wall_ms", 1234.0}};
  return m;
}

TEST(Manifest, JsonlRoundTripPreservesEveryField) {
  const manifest::RunManifest m = sample_manifest();
  std::ostringstream out;
  manifest::write_manifest_jsonl(m, out);

  std::string error;
  const auto parsed = manifest::parse_manifest_jsonl(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->version, manifest::kManifestVersion);
  EXPECT_EQ(parsed->tool, "swiftest-cli");
  EXPECT_EQ(parsed->command, "fleet");
  EXPECT_EQ(parsed->build, "deadbeef");
  EXPECT_EQ(parsed->config, m.config);
  ASSERT_EQ(parsed->artifacts.size(), 1u);
  EXPECT_EQ(parsed->artifacts[0].name, "health");
  EXPECT_EQ(parsed->artifacts[0].bytes, 120u);
  EXPECT_EQ(parsed->artifacts[0].rows, 1u);
  EXPECT_EQ(parsed->artifacts[0].hash, m.artifacts[0].hash);
  ASSERT_NE(parsed->find_summary("trace"), nullptr);
  EXPECT_EQ(*parsed->find_summary("trace"), m.summaries.at("trace"));
  EXPECT_EQ(parsed->bench, m.bench);
  ASSERT_EQ(parsed->slos.size(), 1u);
  EXPECT_EQ(parsed->slos[0].stat, "p95");
  EXPECT_DOUBLE_EQ(parsed->slos[0].observed, 1.25);
  EXPECT_EQ(parsed->slos[0].status, "pass");
  EXPECT_EQ(parsed->host, m.host);
  EXPECT_EQ(parsed->config_value("seed"), std::optional<std::string>("21"));
  EXPECT_EQ(parsed->config_value("nope"), std::nullopt);
}

TEST(Manifest, RoundTripIsByteStable) {
  // write(parse(write(m))) == write(m): the parsed form loses nothing the
  // writer renders.
  std::ostringstream first;
  manifest::write_manifest_jsonl(sample_manifest(), first);
  const auto parsed = manifest::parse_manifest_jsonl(first.str());
  ASSERT_TRUE(parsed.has_value());
  std::ostringstream second;
  manifest::write_manifest_jsonl(*parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Manifest, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(manifest::parse_manifest_jsonl("not json\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(manifest::parse_manifest_jsonl(
                   R"({"type":"mystery"})" "\n", &error)
                   .has_value());
  // A document with records but no manifest header is not a manifest.
  EXPECT_FALSE(manifest::parse_manifest_jsonl(
                   R"({"type":"config","key":"seed","value":"1"})" "\n", &error)
                   .has_value());
  // Required field missing.
  EXPECT_FALSE(manifest::parse_manifest_jsonl(
                   R"({"type":"manifest","version":1,"tool":"swiftest-cli"})"
                   "\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("line 1: missing field \"command\""), std::string::npos)
      << error;
  // Required field of the wrong type.
  EXPECT_FALSE(manifest::parse_manifest_jsonl(
                   R"({"type":"manifest","version":"1","tool":"t","command":"c",)"
                   R"("build":"b"})" "\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("line 1: field \"version\" is not a number"),
            std::string::npos)
      << error;
}

// --- diff verdicts ---------------------------------------------------------

diff::DiffOptions no_artifact_options() {
  diff::DiffOptions options;
  options.load_artifacts = false;  // pure manifest-vs-manifest comparison
  return options;
}

TEST(ManifestDiff, IdenticalManifestsDiffClean) {
  const manifest::RunManifest m = sample_manifest();
  const diff::DiffReport report = diff::diff_runs(m, m, no_artifact_options());
  EXPECT_TRUE(report.identical);
  EXPECT_EQ(report.regressions, 0u);
}

TEST(ManifestDiff, HostAndConfigDriftStaysInformational) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.host = {{"jobs", 1.0}, {"wall_ms", 9999.0}};
  b.config.emplace_back("obs.sample", "1/16");
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_TRUE(report.identical) << "host/config drift must never gate";
  EXPECT_EQ(report.regressions, 0u);
  // ... but it is still reported for attribution.
  bool saw_host = false, saw_config = false;
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.section == "host") saw_host = true;
    if (entry.section == "config" && entry.key == "obs.sample") saw_config = true;
    if (entry.section == "host" || entry.section == "config") {
      EXPECT_EQ(entry.status, diff::DiffStatus::kInfo);
    }
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_config);
}

TEST(ManifestDiff, BenchValueBeyondToleranceRegresses) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 50.0}};
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_FALSE(report.identical);
  EXPECT_GE(report.regressions, 1u);
  bool found = false;
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.section == "bench" && entry.key == "util_median_pct") {
      found = true;
      EXPECT_EQ(entry.status, diff::DiffStatus::kRegressed);
      EXPECT_DOUBLE_EQ(entry.delta, 12.5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ManifestDiff, SmallDriftWithinToleranceDoesNotGate) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 38.0}};  // +1.3%
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_FALSE(report.identical) << "a real delta is still a semantic change";
}

TEST(ManifestDiff, ExpectIdenticalGatesToleratedDrift) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 38.0}};
  diff::DiffOptions options = no_artifact_options();
  options.expect_identical = true;
  const diff::DiffReport report = diff::diff_runs(a, b, options);
  EXPECT_FALSE(report.identical);
  EXPECT_GE(report.regressions, 1u);
}

TEST(ManifestDiff, ExactCountKeysIgnoreTolerance) {
  // "events" is integer-semantics: a one-event delta regresses even though
  // it is far inside the 5% relative tolerance.
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.summaries["trace"] = {{"cat.protocol", 10.0}, {"dropped", 0.0},
                          {"events", 43.0}};
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_GE(report.regressions, 1u);
  bool found = false;
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.key == "events") {
      found = true;
      EXPECT_EQ(entry.status, diff::DiffStatus::kRegressed);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ManifestDiff, NewSloViolationRegresses) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.slos[0].status = "violated";
  b.slos[0].observed = 9.0;
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_GE(report.regressions, 1u);
  EXPECT_FALSE(report.identical);
}

TEST(ManifestDiff, RendersJsonAndMarkdown) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 50.0}};
  const diff::DiffReport report =
      diff::diff_runs(a, b, no_artifact_options(), "runA", "runB");
  std::ostringstream json;
  diff::write_diff_json(report, json);
  EXPECT_NE(json.str().find("\"regressions\""), std::string::npos);
  EXPECT_NE(json.str().find("runA"), std::string::npos);
  std::ostringstream md;
  diff::write_diff_markdown(report, md);
  EXPECT_NE(md.str().find("util_median_pct"), std::string::npos);
}

// --- deep sections over real artifacts -------------------------------------

/// A manifest whose artifacts are `(name, path)` pairs.
manifest::RunManifest manifest_with_artifacts(
    const std::vector<std::pair<std::string, std::string>>& artifacts) {
  manifest::RunManifest m;
  m.command = "fleet";
  m.build = "deadbeef";
  for (const auto& [name, path] : artifacts) {
    m.artifacts.push_back({name, path, 0, 0, manifest::content_hash(path)});
  }
  return m;
}

/// Writes `render(out)` to a fresh temp file and returns its path.
template <typename Render>
std::string temp_artifact(const std::string& file_name, Render render) {
  const std::string path = ::testing::TempDir() + "/" + file_name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  render(out);
  return path;
}

const diff::DiffEntry* find_entry(const diff::DiffReport& report,
                                  const std::string& section, const std::string& key) {
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.section == section && entry.key == key) return &entry;
  }
  return nullptr;
}

/// A one-worker profile: `pool_ms` of the `wall_ms` run is the parallel
/// region, of which the worker is busy `busy_ms`.
hostprof::ProfData one_worker_profile(std::uint64_t wall_ms, std::uint64_t pool_ms,
                                      std::uint64_t busy_ms) {
  constexpr std::uint64_t kMs = 1'000'000;
  hostprof::ProfData data;
  data.chunks = 1;
  data.jobs = 1;
  data.wall_ns = wall_ms * kMs;
  hostprof::TimelineData main_tl;
  main_tl.phases.push_back({hostprof::kPhasePool, 1, pool_ms * kMs, pool_ms * kMs});
  data.timelines.push_back(main_tl);
  hostprof::TimelineData worker;
  worker.tid = 1;
  worker.worker = {true, busy_ms * kMs, (pool_ms - busy_ms) * kMs, pool_ms * kMs, 2, 0, 1};
  worker.phases.push_back({hostprof::kPhaseChunk, 1, busy_ms * kMs, busy_ms * kMs});
  data.timelines.push_back(worker);
  return data;
}

TEST(ManifestDiff, HostprofSectionComparesProfileArtifacts) {
  const hostprof::ProfData prof_a = one_worker_profile(100, 60, 60);
  const hostprof::ProfData prof_b = one_worker_profile(200, 160, 150);
  const auto a = manifest_with_artifacts(
      {{"prof", temp_artifact("diff_prof_a.jsonl", [&](std::ostream& out) {
          hostprof::write_prof_jsonl(prof_a, out);
        })}});
  const auto b = manifest_with_artifacts(
      {{"prof", temp_artifact("diff_prof_b.jsonl", [&](std::ostream& out) {
          hostprof::write_prof_jsonl(prof_b, out);
        })}});

  const diff::DiffReport report = diff::diff_runs(a, b, diff::DiffOptions{});
  const diff::SectionCounts& hostprof = report.sections.at("hostprof");
  EXPECT_EQ(hostprof.checked, 4u);
  EXPECT_EQ(hostprof.regressed, 0u);  // host time never gates
  const diff::DiffEntry* wall = find_entry(report, "hostprof", "wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->a, 100.0);
  EXPECT_DOUBLE_EQ(wall->b, 200.0);
  EXPECT_EQ(wall->status, diff::DiffStatus::kInfo);
  const diff::DiffEntry* serial = find_entry(report, "hostprof", "serial_fraction");
  ASSERT_NE(serial, nullptr);
  EXPECT_DOUBLE_EQ(serial->a, 40.0 / 100.0);  // serial 40 ms, busy 60 ms
  EXPECT_DOUBLE_EQ(serial->b, 40.0 / 190.0);  // serial 40 ms, busy 150 ms
  EXPECT_EQ(report.regressions, 0u);
}

TEST(ManifestDiff, MetricsFallbackLoadsMetricsArtifacts) {
  MetricsSnapshot snapshot_a;
  snapshot_a.counters = {{"tests", 10}};
  snapshot_a.gauges = {{"util", 0.5}};
  MetricsSnapshot snapshot_b = snapshot_a;
  snapshot_b.counters["tests"] = 12;
  const auto a = manifest_with_artifacts(
      {{"metrics", temp_artifact("diff_metrics_a.json", [&](std::ostream& out) {
          write_metrics_json(snapshot_a, out);
        })}});
  const auto b = manifest_with_artifacts(
      {{"metrics", temp_artifact("diff_metrics_b.json", [&](std::ostream& out) {
          write_metrics_json(snapshot_b, out);
        })}});
  ASSERT_EQ(a.find_summary("metrics"), nullptr);

  const diff::DiffReport report = diff::diff_runs(a, b, diff::DiffOptions{});
  const diff::SectionCounts& metrics = report.sections.at("summary.metrics");
  EXPECT_EQ(metrics.checked, 2u);  // counter.tests, gauge.util
  EXPECT_EQ(metrics.identical, 1u);
  const diff::DiffEntry* tests = find_entry(report, "summary.metrics", "counter.tests");
  ASSERT_NE(tests, nullptr);
  EXPECT_DOUBLE_EQ(tests->a, 10.0);
  EXPECT_DOUBLE_EQ(tests->b, 12.0);
  EXPECT_EQ(tests->status, diff::DiffStatus::kRegressed);  // counters are exact
  EXPECT_EQ(report.regressions, 1u);

  // A manifest summary wins over the artifact: no fallback section then.
  manifest::RunManifest with_summary = a;
  with_summary.summaries["metrics"] = {{"counter.tests", 10.0}};
  const diff::DiffReport summarized =
      diff::diff_runs(with_summary, b, diff::DiffOptions{});
  const diff::DiffEntry* only_a = find_entry(summarized, "summary.metrics", "counter.tests");
  ASSERT_NE(only_a, nullptr);
  EXPECT_EQ(only_a->note, "only in A");
}

TEST(ManifestDiff, UnreadableArtifactsLeaveSectionNotes) {
  const std::string missing = ::testing::TempDir() + "/diff_missing_artifact";
  const auto m = manifest_with_artifacts({{"metrics", missing},
                                          {"health", missing},
                                          {"trace_jsonl", missing},
                                          {"spans", missing},
                                          {"prof", missing}});
  const diff::DiffReport report = diff::diff_runs(m, m, diff::DiffOptions{});
  for (const char* section : {"summary.metrics", "health", "trace", "stage", "hostprof"}) {
    const diff::DiffEntry* note = find_entry(report, section, "artifacts");
    ASSERT_NE(note, nullptr) << section;
    EXPECT_EQ(note->status, diff::DiffStatus::kInfo) << section;
    EXPECT_FALSE(note->note.empty()) << section;
  }
  EXPECT_FALSE(report.has_stage_attribution);
  EXPECT_TRUE(report.identical);

  // With deep diffs off nothing is loaded, so nothing is noted either.
  const diff::DiffReport shallow = diff::diff_runs(m, m, no_artifact_options());
  EXPECT_EQ(find_entry(shallow, "health", "artifacts"), nullptr);
}

// --- spill manifest summary ------------------------------------------------

TEST(Manifest, SpillWriterSummary) {
  const std::string dir = ::testing::TempDir();
  SpillWriter writer(dir, "trace", /*shard=*/0);
  TraceEvent events[2] = {};
  writer.write_trace_segment(events, 2);
  writer.write_trace_segment(events, 1);
  const auto summary = summarize_for_manifest(writer);
  double segments = -1.0, ok = -1.0, bytes = -1.0;
  for (const auto& [key, value] : summary) {
    if (key == "segments") segments = value;
    if (key == "ok") ok = value;
    if (key == "bytes") bytes = value;
  }
  EXPECT_EQ(segments, 2.0);
  EXPECT_EQ(bytes, static_cast<double>(writer.bytes_written()));
  EXPECT_GT(writer.bytes_written(), 0u);
  EXPECT_EQ(ok, 1.0);
}

}  // namespace
}  // namespace swiftest::obs
