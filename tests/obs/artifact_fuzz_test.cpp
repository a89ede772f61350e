// Seeded mutational fuzzing of every obs artifact parser.
//
// Each parser starts from a valid document rendered by its own writer (SLO
// specs have no writer; a literal spec stands in). A fixed budget of byte
// flips, truncations and insertions, drawn from core::Rng with a fixed seed,
// damages copies of it; every call must return a value or a non-empty
// error — never crash, hang, or trip a sanitizer. Successful span and
// profile parses also run through the analyzers `trace analyze`,
// `profile report` and `obs diff` feed them to. The budget keeps the whole
// suite well under a second; tools/ci.sh runs it under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "obs/export.hpp"
#include "obs/health/report.hpp"
#include "obs/health/slo.hpp"
#include "obs/hostprof/report.hpp"
#include "obs/json.hpp"
#include "obs/manifest/manifest.hpp"
#include "obs/span/critical_path.hpp"
#include "obs/span/json.hpp"
#include "support/mutate.hpp"

namespace swiftest::obs {
namespace {

constexpr int kMutantsPerParser = 1000;

/// Bytes that steer a mutant into the parser's interesting branches.
constexpr std::string_view kTokens = "{}[]\":,-+.0123456789eE\\u \nntf";

/// Runs `parse` over the seed document and kMutantsPerParser mutants of it.
/// `parse` returns whether it produced a value and fills its error otherwise.
void fuzz(const std::string& seed_doc, std::uint64_t seed,
          const std::function<bool(std::string_view, std::string*)>& parse) {
  std::string error;
  ASSERT_TRUE(parse(seed_doc, &error)) << "seed document must parse: " << error;
  core::Rng rng(seed);
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string doc = test_support::mutate(seed_doc, rng, kTokens);
    const std::unique_ptr<char[]> exact = test_support::exact_copy(doc);
    error.clear();
    if (!parse(std::string_view(exact.get(), doc.size()), &error)) {
      ASSERT_FALSE(error.empty()) << "rejected without a reason: " << doc;
    }
  }
}

// --- seed documents, one per writer ------------------------------------------

std::string json_doc() {
  std::string doc = "{\"s\":";
  append_json_string(doc, "q\"b\\n\n\x01\xC3\xA9");
  doc += ",\"u\":";
  append_u64(doc, std::numeric_limits<std::uint64_t>::max());
  doc += ",\"i\":";
  append_i64(doc, std::numeric_limits<std::int64_t>::min());
  doc += ",\"d\":[";
  append_double(doc, -1.5e-300);
  doc += ",";
  append_double(doc, 0.1);
  doc += ",";
  append_double(doc, std::numeric_limits<double>::infinity());
  doc += "],\"e\":\"\\u00e9\\ud83d\\ude00\",\"n\":[[true],{\"f\":false},null]}";
  return doc;
}

std::string trace_doc() {
  Tracer tracer;
  tracer.record(0, Category::kProtocol, EventKind::kInstant, "probe.start", 7, 1.0);
  tracer.record(1500, Category::kLink, EventKind::kCounter, "link.queue", 7, 12.5);
  tracer.record(3000, Category::kProtocol, EventKind::kInstant, "probe.end",
                (1ull << 63) + 1, -0.25);
  std::ostringstream out;
  write_trace_jsonl(tracer, out);
  return out.str();
}

std::string metrics_doc() {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"tests", 12}, {"packets", 1ull << 60}};
  snapshot.gauges = {{"util", 0.375}};
  snapshot.histograms["rtt_ms"] = {{1.0, 10.0, 100.0}, {3, 5, 1, 0}, 9, 140.5};
  std::ostringstream out;
  write_metrics_json(snapshot, out);
  return out.str();
}

std::string spans_doc() {
  span::SpanStore store;
  const span::SpanId root = store.begin(0, Category::kProtocol, "swiftest.test", 0, 99);
  const span::SpanId child = store.begin(100, Category::kProtocol, "swiftest.probe", root);
  store.attr_f64(child, "rate_mbps", 25.5);
  store.attr_u64(child, "packets", 40);
  store.end(child, 900);
  store.end(root, 1200);
  store.begin(1300, Category::kLink, "left.open", root);
  std::ostringstream out;
  span::write_spans_json(store, out);
  return out.str();
}

std::string health_doc() {
  health::HealthMonitor monitor;
  const std::vector<std::string> tech5g = {"tech:5g"};
  for (int i = 0; i < 20; ++i) {
    health::TestSample sample;
    sample.duration_s = 1.0 + 0.01 * i;
    sample.data_mb = 15.0;
    sample.deviation = 0.02;
    sample.dimensions = tech5g;
    monitor.record_test(sample);
  }
  const health::HealthSnapshot snapshot = monitor.snapshot();
  const std::vector<health::SloSpec> specs = {
      {"dur", "duration_s", "p95", "all", 2.0, std::nullopt, 1}};
  const health::SloEvaluation evaluation = health::evaluate_slos(specs, snapshot);
  std::ostringstream out;
  health::write_health_json(snapshot, {{"command", "fleet"}, {"seed", "7"}}, &evaluation,
                            out);
  return out.str();
}

std::string slo_doc() {
  return R"({"slos": [
    {"name": "dev", "metric": "deviation", "stat": "mean", "dimension": "all",
     "max": 0.1, "min_samples": 50},
    {"name": "dur", "metric": "duration_s", "stat": "p95", "min": 0.5}]})";
}

std::string manifest_doc() {
  manifest::RunManifest m;
  m.command = "fleet";
  m.build = "deadbeef";
  m.config = {{"seed", "21"}, {"backend", "packet"}};
  m.artifacts.push_back({"health", "/tmp/h.json", 120, 3, manifest::content_hash("h")});
  m.summaries["trace"] = {{"events", 42.0}, {"cat.net", 7.0}};
  m.bench = {{"tests_simulated", 100.0}};
  m.slos.push_back({"dur", "all", "p95", 1.25, "pass"});
  m.host = {{"jobs", 2.0}, {"wall_ms", 15.5}};
  std::ostringstream out;
  manifest::write_manifest_jsonl(m, out);
  return out.str();
}

std::string prof_doc() {
  hostprof::ProfData data;
  data.chunks = 2;
  data.jobs = 2;
  data.wall_ns = 1'000'000;
  hostprof::TimelineData main_tl;
  main_tl.phases.push_back({hostprof::kPhasePool, 1, 600'000, 600'000});
  main_tl.intervals.push_back({hostprof::kPhasePool, 100'000, 600'000, 0, 0});
  data.timelines.push_back(main_tl);
  hostprof::TimelineData worker;
  worker.tid = 1;
  worker.worker = {true, 500'000, 100'000, 600'000, 3, 0, 2};
  worker.phases.push_back({hostprof::kPhaseChunk, 2, 500'000, 300'000});
  worker.intervals.push_back({hostprof::kPhaseChunk, 100'000, 300'000, 1, 0});
  worker.intervals.push_back({hostprof::kPhaseChunk, 400'000, 200'000, 1, 1});
  data.timelines.push_back(worker);
  std::ostringstream out;
  hostprof::write_prof_jsonl(data, out);
  return out.str();
}

// --- one test per parser -----------------------------------------------------

TEST(ArtifactParserFuzz, ParseJson) {
  fuzz(json_doc(), 1, [](std::string_view text, std::string* error) {
    return parse_json(text, error).has_value();
  });
}

TEST(ArtifactParserFuzz, TraceJsonl) {
  fuzz(trace_doc(), 2, [](std::string_view text, std::string* error) {
    return parse_trace_jsonl(text, error).has_value();
  });
}

TEST(ArtifactParserFuzz, MetricsJson) {
  fuzz(metrics_doc(), 3, [](std::string_view text, std::string* error) {
    return parse_metrics_json(text, error).has_value();
  });
}

TEST(ArtifactParserFuzz, SpansJson) {
  fuzz(spans_doc(), 4, [](std::string_view text, std::string* error) {
    const auto spans = span::parse_spans_json(text, error);
    if (spans) (void)span::analyze_spans(*spans);
    return spans.has_value();
  });
}

TEST(ArtifactParserFuzz, HealthJson) {
  fuzz(health_doc(), 5, [](std::string_view text, std::string* error) {
    return health::parse_health_json(text, error).has_value();
  });
}

TEST(ArtifactParserFuzz, SloSpecs) {
  fuzz(slo_doc(), 6, [](std::string_view text, std::string* error) {
    return health::parse_slo_specs(text, error).has_value();
  });
}

TEST(ArtifactParserFuzz, ManifestJsonl) {
  fuzz(manifest_doc(), 7, [](std::string_view text, std::string* error) {
    return manifest::parse_manifest_jsonl(text, error).has_value();
  });
}

TEST(ArtifactParserFuzz, ProfJsonl) {
  fuzz(prof_doc(), 8, [](std::string_view text, std::string* error) {
    const auto data = hostprof::read_prof_jsonl(text, error);
    if (data) (void)hostprof::analyze_prof(*data);
    return data.has_value();
  });
}

// Regression inputs: numbers no integer field can hold. Each read used to
// cast the double straight to its integer type, undefined behaviour that
// UBSan's float-cast-overflow check aborts on.
TEST(ArtifactParserFuzz, OutOfRangeNumbersReadAsFallbacks) {
  const auto m = manifest::parse_manifest_jsonl(
      R"({"type":"manifest","version":1e300,"tool":"t","command":"c","build":"b"})");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->version, 0);

  for (const char* min_samples : {"1e300", "-1"}) {
    const auto specs = health::parse_slo_specs(
        std::string(R"({"slos":[{"name":"a","metric":"m","max":1,"min_samples":)") +
        min_samples + "}]}");
    ASSERT_TRUE(specs.has_value()) << min_samples;
    EXPECT_EQ((*specs)[0].min_samples, 1u) << min_samples;
  }

  const auto metrics = parse_metrics_json(
      R"({"counters":{"x":1e30},"histograms":{"h":{"counts":[1e30],"count":-2}}})");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->counters.at("x"), 0u);
  EXPECT_EQ(metrics->histograms.at("h").counts.at(0), 0u);
  EXPECT_EQ(metrics->histograms.at("h").count, 0u);

  std::string error;
  EXPECT_FALSE(span::parse_spans_json(R"({"spans":[{"id":1e300}]})", &error));
  EXPECT_NE(error.find("nonzero"), std::string::npos) << error;
}

}  // namespace
}  // namespace swiftest::obs
