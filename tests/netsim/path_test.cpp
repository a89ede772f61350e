#include "netsim/path.hpp"

#include <gtest/gtest.h>

#include "netsim/scenario.hpp"
#include "netsim/udp.hpp"
#include "swiftest/client.hpp"

namespace swiftest::netsim {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

TEST(Path, BaseRttCombinesDelays) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(100), milliseconds(10)}, core::Rng(1));
  Path path(sched, link, milliseconds(15));
  EXPECT_EQ(path.base_rtt(), milliseconds(50));
}

TEST(Path, DownstreamTraversesBackboneThenAccess) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(8), milliseconds(10)}, core::Rng(1));
  Path path(sched, link, milliseconds(15));
  core::SimTime delivered_at = -1;
  Packet pkt;
  pkt.size_bytes = 1000;  // 1 ms serialization at 8 Mbps
  path.send_downstream(pkt, [&](const Packet&) { delivered_at = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered_at, milliseconds(15 + 1 + 10));
}

TEST(Path, UpstreamIsPureDelay) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(8), milliseconds(10)}, core::Rng(1));
  Path path(sched, link, milliseconds(15));
  core::SimTime delivered_at = -1;
  Packet pkt;
  pkt.size_bytes = 40;
  path.send_upstream(pkt, [&](const Packet&) { delivered_at = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered_at, milliseconds(25));
}

TEST(Path, ServerEgressCapsDownstreamRate) {
  Scheduler sched;
  // A gigabit access link, but a 100 Mbps server uplink.
  Link link(sched, LinkConfig{Bandwidth::gbps(1), milliseconds(5),
                              core::megabytes(8)},
            core::Rng(1));
  // DropTail server uplink with a ~50 ms buffer.
  Link egress(sched, LinkConfig{Bandwidth::mbps(100), 0, core::Bytes(625'000)},
              core::Rng(2));
  Path path(sched, link, milliseconds(5), &egress);
  ASSERT_EQ(path.server_egress(), &egress);

  UdpFlow flow(sched, path, 1);
  std::int64_t bytes = 0;
  flow.set_on_delivered([&](std::int64_t b, std::int64_t) { bytes += b; });
  flow.set_rate(Bandwidth::mbps(800));  // blasts well past the server uplink
  sched.run_until(seconds(2));
  flow.stop();
  const double mbps = static_cast<double>(bytes) * 8.0 / 2.0 / 1e6;
  EXPECT_LT(mbps, 105.0);
  EXPECT_GT(mbps, 85.0);
  EXPECT_GT(path.server_egress()->stats().queue_drops, 0u);
}

TEST(Scenario, ServerUplinkConfigCapsSingleServerTests) {
  ScenarioConfig cfg;
  cfg.access_rate = Bandwidth::mbps(500);
  cfg.server_uplink = Bandwidth::mbps(100);
  Scenario scenario(cfg, 3);
  UdpFlow flow(scenario.scheduler(), scenario.server_path(0), 1);
  std::int64_t bytes = 0;
  flow.set_on_delivered([&](std::int64_t b, std::int64_t) { bytes += b; });
  flow.set_rate(Bandwidth::mbps(400));
  scenario.scheduler().run_until(seconds(2));
  flow.stop();
  const double mbps = static_cast<double>(bytes) * 8.0 / 2.0 / 1e6;
  EXPECT_LT(mbps, 105.0);
}

TEST(Scenario, SwiftestAggregatesBudgetServerUplinks) {
  // With 100 Mbps server uplinks *enforced by the network*, Swiftest still
  // measures a 300 Mbps client correctly because it enlists enough servers.
  ScenarioConfig cfg;
  cfg.access_rate = Bandwidth::mbps(300);
  cfg.access_delay = milliseconds(10);
  cfg.server_uplink = Bandwidth::mbps(100);
  Scenario scenario(cfg, 4);
  static const swift::ModelRegistry registry;
  swift::SwiftestConfig swift_cfg;
  swift_cfg.tech = dataset::AccessTech::k5G;
  swift::SwiftestClient client(swift_cfg, registry);
  const auto result = client.run(scenario);
  EXPECT_NEAR(result.bandwidth_mbps, 300.0, 30.0);
  EXPECT_GE(result.connections_used, 3u);
}

}  // namespace
}  // namespace swiftest::netsim
