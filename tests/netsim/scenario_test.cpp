#include "netsim/scenario.hpp"

#include <gtest/gtest.h>

#include "netsim/tcp.hpp"

namespace swiftest::netsim {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

TEST(Scenario, BuildsRequestedServerCount) {
  ScenarioConfig cfg;
  cfg.server_count = 7;
  Scenario s(cfg, 1);
  EXPECT_EQ(s.server_count(), 7u);
}

TEST(Scenario, ServerDelaysWithinConfiguredRange) {
  ScenarioConfig cfg;
  cfg.server_delay_min = milliseconds(2);
  cfg.server_delay_max = milliseconds(25);
  Scenario s(cfg, 2);
  for (std::size_t i = 0; i < s.server_count(); ++i) {
    const auto d = s.server_path(i).server_delay();
    EXPECT_GE(d, milliseconds(2));
    EXPECT_LE(d, milliseconds(25));
  }
}

TEST(Scenario, PingReflectsPathRtt) {
  ScenarioConfig cfg;
  Scenario s(cfg, 3);
  for (std::size_t i = 0; i < s.server_count(); ++i) {
    const auto base = s.server_path(i).base_rtt();
    const auto ping = s.measure_ping(i);
    EXPECT_GE(ping, base);
    EXPECT_LE(ping, base + base / 5);
  }
}

TEST(Scenario, NearestServerSelectionPrefersLowRtt) {
  ScenarioConfig cfg;
  cfg.server_count = 10;
  Scenario s(cfg, 4);
  const std::size_t chosen = s.client().select_server(10).server;
  // The chosen server's base RTT must be within jitter (10%) of the minimum.
  core::SimDuration min_rtt = core::kSimTimeMax;
  for (std::size_t i = 0; i < 10; ++i) {
    min_rtt = std::min(min_rtt, s.server_path(i).base_rtt());
  }
  EXPECT_LE(s.server_path(chosen).base_rtt(),
            min_rtt + min_rtt / 4);
}

TEST(Scenario, SuggestedMssScalesWithRate) {
  EXPECT_EQ(suggested_mss(Bandwidth::mbps(50)), kDefaultMss);
  EXPECT_EQ(suggested_mss(Bandwidth::mbps(400)), kDefaultMss * 2);
  EXPECT_EQ(suggested_mss(Bandwidth::gbps(1)), kDefaultMss * 4);
}

TEST(Scenario, TcpOverScenarioSaturatesAccessRate) {
  ScenarioConfig cfg;
  cfg.access_rate = Bandwidth::mbps(80);
  Scenario s(cfg, 5);
  TcpConfig tcp_cfg;
  tcp_cfg.mss = suggested_mss(cfg.access_rate);
  TcpConnection conn(s.scheduler(), s.server_path(0), tcp_cfg, 1);
  conn.start();
  s.scheduler().run_until(seconds(8));
  conn.stop();
  const double mbps = static_cast<double>(conn.stats().app_bytes_delivered) * 8.0 / 8.0 / 1e6;
  EXPECT_GT(mbps, 80.0 * 0.7);
}

TEST(Scenario, CrossTrafficReducesTcpGoodput) {
  auto run = [](bool cross) {
    ScenarioConfig cfg;
    cfg.access_rate = Bandwidth::mbps(50);
    cfg.enable_cross_traffic = cross;
    cfg.cross_traffic.peak_rate = Bandwidth::mbps(40);
    cfg.cross_traffic.mean_on_seconds = 2.0;
    cfg.cross_traffic.mean_off_seconds = 0.5;
    Scenario s(cfg, 6);
    if (cross) s.start_cross_traffic();
    TcpConfig tcp_cfg;
    TcpConnection conn(s.scheduler(), s.server_path(0), tcp_cfg, 1);
    conn.start();
    s.scheduler().run_until(seconds(8));
    conn.stop();
    return conn.stats().app_bytes_delivered;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Scenario, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    ScenarioConfig cfg;
    cfg.access_rate = Bandwidth::mbps(60);
    cfg.enable_cross_traffic = true;
    Scenario s(cfg, seed);
    s.start_cross_traffic();
    TcpConfig tcp_cfg;
    TcpConnection conn(s.scheduler(), s.server_path(0), tcp_cfg, 1);
    conn.start();
    s.scheduler().run_until(seconds(5));
    conn.stop();
    return conn.stats().app_bytes_delivered;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

}  // namespace
}  // namespace swiftest::netsim
