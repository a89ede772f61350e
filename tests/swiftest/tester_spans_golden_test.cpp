// Pins the span trees of the four direct testers — FAST, FastBTS, BTS-APP
// flooding and the simulator-driven SwiftestClient — byte for byte against
// committed goldens under tests/golden. Each tester runs once on one seeded
// single-client Scenario with a Hub attached; the spans artifact it leaves
// (ids, parents, stage names, sim-time bounds, attributes) must not move
// when the span plumbing underneath is refactored.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bts/fast.hpp"
#include "bts/fastbts.hpp"
#include "bts/flooding.hpp"
#include "netsim/scenario.hpp"
#include "obs/hub.hpp"
#include "obs/span/json.hpp"
#include "swiftest/client.hpp"

namespace swiftest {
namespace {

constexpr std::uint64_t kSeed = 23;

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Runs `tester` on a 50 Mbps scenario with a Hub and returns the spans
/// artifact. The rendering is also left in the test temp dir as
/// tester_<tag>_spans.json, so a golden can be regenerated from a run.
std::string run_spans(bts::BandwidthTester& tester, const std::string& tag) {
  netsim::ScenarioConfig net;
  net.access_rate = core::Bandwidth::mbps(50);
  net.access_delay = core::milliseconds(10);
  netsim::Scenario scenario(net, kSeed);
  obs::Hub hub;
  scenario.scheduler().set_obs(&hub);
  const bts::BtsResult result = tester.run(scenario);
  EXPECT_GT(result.bandwidth_mbps, 0.0) << tag;
  EXPECT_EQ(hub.spans.open_count(), 0u) << tag;
  std::ostringstream out;
  obs::span::write_spans_json(hub.spans, out);
  std::ofstream(testing::TempDir() + "/tester_" + tag + "_spans.json") << out.str();
  return out.str();
}

void expect_golden(bts::BandwidthTester& tester, const std::string& tag) {
  const std::string spans = run_spans(tester, tag);
  const std::string golden =
      slurp(std::string(SWIFTEST_GOLDEN_DIR) + "/tester_" + tag + "_spans.json");
  ASSERT_FALSE(golden.empty()) << "missing golden for " << tag;
  EXPECT_EQ(spans, golden) << tag;
}

TEST(TesterSpanGoldens, Fast) {
  bts::FastBts tester;
  expect_golden(tester, "fast");
}

TEST(TesterSpanGoldens, FastBts) {
  bts::FastBtsCi tester;
  expect_golden(tester, "fastbts");
}

TEST(TesterSpanGoldens, Flooding) {
  bts::FloodingBts tester;
  expect_golden(tester, "flooding");
}

TEST(TesterSpanGoldens, SwiftestClient) {
  swift::SwiftestConfig cfg;
  // The 4G model starts below 50 Mbps, so the tree holds several rounds.
  cfg.tech = dataset::AccessTech::k4G;
  const swift::ModelRegistry registry;
  swift::SwiftestClient tester(cfg, registry);
  expect_golden(tester, "swiftest");
}

}  // namespace
}  // namespace swiftest
