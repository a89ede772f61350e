#include "bts/fastbts.hpp"

#include <gtest/gtest.h>

namespace swiftest::bts {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

TEST(CrucialInterval, FindsDensestCluster) {
  // A dense cluster near 100 plus scattered outliers.
  std::vector<double> samples{5,  99, 100, 101, 99.5, 100.5, 98.8, 101.2, 100.1,
                              250, 400};
  const CrucialInterval ci = crucial_interval(samples);
  EXPECT_GE(ci.low, 98.0);
  EXPECT_LE(ci.high, 102.0);
  EXPECT_NEAR(ci.estimate, 100.0, 1.0);
  EXPECT_EQ(ci.count, 8u);
}

TEST(CrucialInterval, SingleSample) {
  const CrucialInterval ci = crucial_interval(std::vector<double>{42.0});
  EXPECT_DOUBLE_EQ(ci.estimate, 42.0);
  EXPECT_EQ(ci.count, 1u);
}

TEST(CrucialInterval, EmptyInput) {
  const CrucialInterval ci = crucial_interval({});
  EXPECT_EQ(ci.count, 0u);
  EXPECT_DOUBLE_EQ(ci.estimate, 0.0);
}

TEST(CrucialInterval, PrefersQuantityTimesDensity) {
  // Two clusters: 3 tight samples vs 8 slightly looser ones — quantity wins.
  std::vector<double> samples{10.0, 10.01, 10.02};
  for (int i = 0; i < 8; ++i) samples.push_back(100.0 + 0.3 * i);
  const CrucialInterval ci = crucial_interval(samples);
  EXPECT_GT(ci.low, 50.0);
  EXPECT_EQ(ci.count, 8u);
}

TEST(CrucialInterval, IgnoresOrderOfInput) {
  std::vector<double> a{3, 1, 2, 100, 101, 102, 99};
  std::vector<double> b{99, 100, 1, 101, 2, 102, 3};
  EXPECT_DOUBLE_EQ(crucial_interval(a).estimate, crucial_interval(b).estimate);
}

netsim::ScenarioConfig scenario_cfg(double mbps, core::SimDuration delay) {
  netsim::ScenarioConfig cfg;
  cfg.access_rate = Bandwidth::mbps(mbps);
  cfg.access_delay = delay;
  return cfg;
}

TEST(FastBtsCiTester, FastOnModerateLinks) {
  netsim::Scenario scenario(scenario_cfg(50.0, milliseconds(10)), 31);
  const auto result = FastBtsCi().run(scenario);
  EXPECT_LT(result.probe_duration, seconds(4));
  // FastBTS is quick but can settle below the truth (premature convergence).
  EXPECT_GT(result.bandwidth_mbps, 50.0 * 0.5);
  EXPECT_LT(result.bandwidth_mbps, 50.0 * 1.1);
}

TEST(FastBtsCiTester, PrematureConvergenceUnderestimatesHighBdp) {
  // High bandwidth x high RTT: TCP is often still climbing when the crucial
  // interval stabilizes — FastBTS's §5.3 accuracy weakness. The effect is
  // statistical, so assert the mean across seeds.
  double sum = 0.0;
  constexpr int kSeeds = 8;
  for (std::uint64_t seed = 40; seed < 40 + kSeeds; ++seed) {
    netsim::Scenario scenario(scenario_cfg(600.0, milliseconds(35)), seed);
    sum += FastBtsCi().run(scenario).bandwidth_mbps;
  }
  EXPECT_LT(sum / kSeeds, 600.0 * 0.85);
}

TEST(FastBtsCiTester, UsesLessDataThanAFixedFlood) {
  netsim::Scenario scenario(scenario_cfg(100.0, milliseconds(10)), 33);
  const auto result = FastBtsCi().run(scenario);
  // A 10 s flood at 100 Mbps would be ~125 MB.
  EXPECT_LT(result.data_used.megabytes(), 60.0);
}

TEST(Deviation, MatchesPaperFormula) {
  EXPECT_DOUBLE_EQ(deviation(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(deviation(50.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(deviation(100.0, 50.0), 0.5);
  EXPECT_DOUBLE_EQ(deviation(0.0, 0.0), 0.0);
}

TEST(SelectServer, PicksLowLatencyServer) {
  netsim::ScenarioConfig cfg;
  cfg.server_count = 10;
  netsim::Scenario scenario(cfg, 34);
  const netsim::ServerChoice sel = scenario.client().select_server(5);
  EXPECT_LT(sel.server, 5u);
  EXPECT_GT(sel.elapsed, 0);
}

}  // namespace
}  // namespace swiftest::bts
