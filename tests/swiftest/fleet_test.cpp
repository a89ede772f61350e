// SwiftestServer concurrency behaviour under multiple simultaneous wire
// clients: session-capacity rejection, stale rate-update sequencing, and the
// idle-session GC that cleans up after vanished clients.
#include "swiftest/fleet.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "netsim/testbed.hpp"
#include "swiftest/wire_client.hpp"

namespace swiftest::swift {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

netsim::TestbedConfig fleet_cfg(std::size_t clients) {
  netsim::TestbedConfig cfg;
  cfg.fleet.server_count = 1;
  cfg.fleet.server_uplink = Bandwidth::mbps(100);
  netsim::ClientAccessConfig client;
  client.access_rate = Bandwidth::mbps(1000);
  client.access_delay = milliseconds(10);
  cfg.clients.assign(clients, client);
  return cfg;
}

const ModelRegistry& shared_registry() {
  static const ModelRegistry registry;
  return registry;
}

std::unique_ptr<WireClient> make_wire_client(ServerFleet& fleet,
                                             core::SimDuration max_duration) {
  SwiftestConfig cfg;
  cfg.tech = dataset::AccessTech::kWiFi5;
  cfg.max_duration = max_duration;
  auto wire = std::make_unique<WireClient>(cfg, shared_registry());
  wire->attach_fleet(fleet);
  return wire;
}

TEST(ServerFleet, RejectsSessionsBeyondMaxSessions) {
  netsim::Testbed testbed(fleet_cfg(3), 31);
  ServerConfig server_cfg;
  server_cfg.max_sessions = 2;
  ServerFleet fleet(testbed, server_cfg);

  std::vector<std::unique_ptr<WireClient>> wires;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    wires.push_back(make_wire_client(fleet, seconds(2)));
    wires.back()->start(testbed.client(i),
                        [&completed](const bts::BtsResult&) { ++completed; });
  }
  netsim::Scheduler& sched = testbed.scheduler();
  while (completed < 3 && sched.now() < seconds(10)) {
    sched.run_until(sched.now() + milliseconds(100));
  }
  EXPECT_EQ(completed, 3u);

  const ServerStats stats = fleet.aggregate_stats();
  // Two clients got sessions, the third hit the capacity limit.
  EXPECT_EQ(stats.requests_accepted, 2u);
  EXPECT_GE(stats.requests_rejected, 1u);
}

TEST(ServerFleet, ConcurrentSessionsAllComplete) {
  netsim::Testbed testbed(fleet_cfg(3), 32);
  ServerFleet fleet(testbed, {});

  std::vector<std::unique_ptr<WireClient>> wires;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    wires.push_back(make_wire_client(fleet, seconds(6)));
    wires.back()->start(testbed.client(i),
                        [&completed](const bts::BtsResult&) { ++completed; });
  }
  netsim::Scheduler& sched = testbed.scheduler();
  while (completed < 3 && sched.now() < seconds(12)) {
    sched.run_until(sched.now() + milliseconds(100));
  }
  EXPECT_EQ(completed, 3u);

  const ServerStats stats = fleet.aggregate_stats();
  EXPECT_EQ(stats.requests_accepted, 3u);
  EXPECT_EQ(stats.completions, 3u);
  EXPECT_EQ(stats.garbled_messages, 0u);
  EXPECT_EQ(fleet.active_sessions(), 0u);
}

struct FleetRun {
  std::size_t servers = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t heap_fallbacks = 0;  // SmallFn targets too big to sit inline
};

/// One wire test against a four-server 100 Mbps fleet, counting SmallFn heap
/// fallbacks from start to completion.
FleetRun run_fleet_test(double access_mbps, dataset::AccessTech tech) {
  netsim::TestbedConfig cfg = fleet_cfg(1);
  cfg.fleet.server_count = 4;
  cfg.clients[0].access_rate = Bandwidth::mbps(access_mbps);
  netsim::Testbed testbed(cfg, 34);
  ServerFleet fleet(testbed, {});
  SwiftestConfig client_cfg;
  client_cfg.tech = tech;
  WireClient wire(client_cfg, shared_registry());
  wire.attach_fleet(fleet);

  FleetRun run;
  bool done = false;
  const std::uint64_t before = core::small_fn_heap_allocations();
  wire.start(testbed.client(0), [&](const bts::BtsResult& r) {
    run.servers = r.connections_used;
    done = true;
  });
  netsim::Scheduler& sched = testbed.scheduler();
  while (!done) sched.run_until(sched.now() + milliseconds(100));
  run.heap_fallbacks = core::small_fn_heap_allocations() - before;
  const ServerStats stats = fleet.aggregate_stats();
  run.control_messages =
      stats.requests_accepted + stats.rate_updates_applied + stats.completions;
  return run;
}

TEST(ServerFleet, ControlClosuresStayInline) {
  // Every control datagram's delivery closure must fit SmallFn's inline
  // buffer: enlisting four servers sends several times the control messages
  // of one, and must not cost a single extra heap fallback.
  const FleetRun one = run_fleet_test(50.0, dataset::AccessTech::k4G);
  const FleetRun four = run_fleet_test(350.0, dataset::AccessTech::k5G);
  ASSERT_EQ(one.servers, 1u);
  ASSERT_EQ(four.servers, 4u);
  ASSERT_GT(four.control_messages, 2 * one.control_messages);
  EXPECT_EQ(four.heap_fallbacks, one.heap_fallbacks);
}

TEST(ServerFleet, StaleRateUpdatesAreSequenced) {
  // Drive the protocol directly: three sessions on one multi-endpoint
  // server, each receiving an out-of-order RateUpdate after a newer one.
  netsim::Scheduler sched;
  netsim::Link link(sched, netsim::LinkConfig{Bandwidth::mbps(100), milliseconds(5)},
                    core::Rng(1));
  netsim::Path path(sched, link, milliseconds(5));
  SwiftestServer server(sched, ServerConfig{});
  netsim::Path::DeliveryFn sink = [](const netsim::Packet&) {};

  for (std::uint64_t nonce : {1ull, 3ull, 5ull}) {
    ProbeRequest request;
    request.tech = dataset::AccessTech::kWiFi5;
    request.initial_rate_kbps = 1000;
    request.nonce = nonce;
    server.on_control_message(serialize(request), path, sink);

    RateUpdate newer;
    newer.nonce = nonce;
    newer.rate_kbps = 2000;
    newer.update_seq = 2;
    server.on_control_message(serialize(newer), path, sink);

    RateUpdate stale;  // arrives late, must not roll the rate back
    stale.nonce = nonce;
    stale.rate_kbps = 50'000;
    stale.update_seq = 1;
    server.on_control_message(serialize(stale), path, sink);
  }

  EXPECT_EQ(server.stats().requests_accepted, 3u);
  EXPECT_EQ(server.stats().rate_updates_applied, 3u);
  EXPECT_EQ(server.stats().rate_updates_stale, 3u);
  EXPECT_EQ(server.active_sessions(), 3u);
}

TEST(ServerFleet, IdleSessionsAreReapedAfterClientsVanish) {
  netsim::Testbed testbed(fleet_cfg(3), 33);
  ServerConfig server_cfg;
  server_cfg.idle_timeout = seconds(1);
  ServerFleet fleet(testbed, server_cfg);

  std::vector<std::unique_ptr<WireClient>> wires;
  for (std::size_t i = 0; i < 3; ++i) {
    wires.push_back(make_wire_client(fleet, seconds(6)));
    wires.back()->start(testbed.client(i), {});
  }
  netsim::Scheduler& sched = testbed.scheduler();
  sched.run_until(milliseconds(500));
  EXPECT_EQ(fleet.active_sessions(), 3u);

  // All three clients vanish mid-test (crash/network drop): no TestComplete
  // ever arrives, so only the idle GC can reclaim the sessions.
  wires.clear();
  sched.run_until(milliseconds(500) + 4 * server_cfg.idle_timeout);

  const ServerStats stats = fleet.aggregate_stats();
  EXPECT_EQ(stats.sessions_reaped, 3u);
  EXPECT_EQ(stats.completions, 0u);
  EXPECT_EQ(fleet.active_sessions(), 0u);
}

}  // namespace
}  // namespace swiftest::swift
