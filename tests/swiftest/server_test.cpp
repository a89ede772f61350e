#include "swiftest/server.hpp"

#include <gtest/gtest.h>

#include "netsim/link.hpp"

namespace swiftest::swift {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

// One client endpoint: its path to the server and a sink counting the probe
// bytes that reach it.
struct ServerNet {
  netsim::Scheduler sched;
  netsim::Link link;
  netsim::Path path;
  std::int64_t received = 0;
  netsim::Path::DeliveryFn sink = [this](const netsim::Packet& pkt) {
    received += pkt.size_bytes;
  };

  explicit ServerNet(double mbps = 1000.0)
      : link(sched,
             netsim::LinkConfig{Bandwidth::mbps(mbps), milliseconds(5),
                                core::kilobytes(512), 0.0},
             core::Rng(3)),
        path(sched, link, milliseconds(5)) {}

  /// Hands `bytes` to the server as if they arrived from this endpoint.
  void control(SwiftestServer& server, std::span<const std::uint8_t> bytes) {
    server.on_control_message(bytes, path, sink);
  }
};

ProbeRequest request_for(std::uint64_t nonce, double mbps) {
  ProbeRequest request;
  request.tech = dataset::AccessTech::k5G;
  request.initial_rate_kbps = static_cast<std::uint32_t>(mbps * 1000.0);
  request.nonce = nonce;
  return request;
}

TEST(SwiftestServer, SendsProbesAtRequestedRate) {
  ServerNet net;
  SwiftestServer server(net.sched, {});
  std::int64_t received = 0;
  server.on_control_message(serialize(request_for(1, 50.0)), net.path,
                            [&](const netsim::Packet& pkt) {
                              received += pkt.size_bytes;
                              ASSERT_TRUE(pkt.payload);
                              EXPECT_TRUE(
                                  parse_probe_data(pkt.payload.bytes()).has_value());
                            });
  net.sched.run_until(seconds(2));
  const double mbps = static_cast<double>(received) * 8.0 / 2.0 / 1e6;
  EXPECT_NEAR(mbps, 50.0, 3.0);
  EXPECT_EQ(server.stats().requests_accepted, 1u);
}

TEST(SwiftestServer, PacingQuantumPreservesRateWithFewerWakeups) {
  // Coalesced pacing must deliver the same long-run rate as exact pacing —
  // probes due within a quantum window just go out in one burst — while
  // scheduling measurably fewer pacer timer events.
  const auto run_with = [](core::SimDuration quantum) {
    ServerNet net;
    ServerConfig cfg;
    cfg.pacing_quantum = quantum;
    SwiftestServer server(net.sched, cfg);
    net.control(server, serialize(request_for(1, 50.0)));
    net.sched.run_until(seconds(2));
    return std::pair<std::int64_t, std::uint64_t>(net.received,
                                                  net.sched.events_executed());
  };
  const auto [exact_bytes, exact_events] = run_with(0);
  const auto [batched_bytes, batched_events] = run_with(milliseconds(2));
  const double exact_mbps = static_cast<double>(exact_bytes) * 8.0 / 2.0 / 1e6;
  const double batched_mbps = static_cast<double>(batched_bytes) * 8.0 / 2.0 / 1e6;
  EXPECT_NEAR(exact_mbps, 50.0, 3.0);
  EXPECT_NEAR(batched_mbps, exact_mbps, 3.0);
  EXPECT_LT(batched_events, exact_events);
}

TEST(SwiftestServer, ClampsRateToUplink) {
  ServerNet net;
  ServerConfig cfg;
  cfg.uplink = Bandwidth::mbps(100);
  SwiftestServer server(net.sched, cfg);
  net.control(server, serialize(request_for(1, 500.0)));  // way over uplink
  net.sched.run_until(seconds(2));
  const double mbps = static_cast<double>(net.received) * 8.0 / 2.0 / 1e6;
  EXPECT_LT(mbps, 105.0);
  EXPECT_GT(mbps, 90.0);
}

TEST(SwiftestServer, RateUpdateChangesPace) {
  ServerNet net;
  SwiftestServer server(net.sched, {});
  net.control(server, serialize(request_for(1, 10.0)));
  net.sched.run_until(seconds(1));
  const auto before = net.received;
  net.control(server, serialize(RateUpdate{1, 80'000, 1}));
  net.sched.run_until(seconds(2));
  const double second_mbps = static_cast<double>(net.received - before) * 8.0 / 1e6;
  EXPECT_NEAR(second_mbps, 80.0, 6.0);
  EXPECT_EQ(server.stats().rate_updates_applied, 1u);
}

TEST(SwiftestServer, StaleRateUpdateIgnored) {
  ServerNet net;
  SwiftestServer server(net.sched, {});
  net.control(server, serialize(request_for(1, 10.0)));
  net.control(server, serialize(RateUpdate{1, 50'000, 2}));
  net.control(server, serialize(RateUpdate{1, 90'000, 1}));  // reordered, stale
  EXPECT_EQ(server.stats().rate_updates_applied, 1u);
  EXPECT_EQ(server.stats().rate_updates_stale, 1u);
  net.sched.run_until(seconds(1));
  // Still pacing at 50, not 90.
  EXPECT_NEAR(static_cast<double>(net.received) * 8.0 / 1e6, 50.0, 5.0);
}

TEST(SwiftestServer, TestCompleteStopsSession) {
  ServerNet net;
  SwiftestServer server(net.sched, {});
  net.control(server, serialize(request_for(1, 50.0)));
  net.sched.run_until(seconds(1));
  net.control(server, serialize(TestComplete{1, 50'000, 20}));
  EXPECT_EQ(server.active_sessions(), 0u);
  const auto at_complete = net.received;
  net.sched.run_until(seconds(3));
  // Only in-flight datagrams drain after completion: one path-delay's worth
  // (~10 ms at 50 Mbps = ~63 KB), not the 18+ MB of two more seconds.
  EXPECT_LT(net.received - at_complete, 150'000);
}

TEST(SwiftestServer, IdleSessionsAreReaped) {
  ServerNet net;
  ServerConfig cfg;
  cfg.idle_timeout = milliseconds(500);
  SwiftestServer server(net.sched, cfg);
  net.control(server, serialize(request_for(7, 30.0)));
  EXPECT_EQ(server.active_sessions(), 1u);
  net.sched.run_until(seconds(2));  // no TestComplete ever arrives
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(server.stats().sessions_reaped, 1u);
}

TEST(SwiftestServer, RejectsWhenFull) {
  ServerNet net;
  ServerConfig cfg;
  cfg.max_sessions = 2;
  SwiftestServer server(net.sched, cfg);
  net.control(server, serialize(request_for(1, 1.0)));
  net.control(server, serialize(request_for(2, 1.0)));
  net.control(server, serialize(request_for(3, 1.0)));
  EXPECT_EQ(server.active_sessions(), 2u);
  EXPECT_EQ(server.stats().requests_rejected, 1u);
  // A repeat request for an existing session is not a rejection.
  net.control(server, serialize(request_for(2, 5.0)));
  EXPECT_EQ(server.stats().requests_rejected, 1u);
}

TEST(SwiftestServer, GarbledMessagesCountedAndDropped) {
  ServerNet net;
  SwiftestServer server(net.sched, {});
  net.control(server, std::vector<std::uint8_t>{1, 2, 3});
  net.control(server, {});
  // A downstream-only ProbeData arriving upstream is misuse.
  net.control(server, serialize(ProbeData{1, 2}));
  EXPECT_EQ(server.stats().garbled_messages, 3u);
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(SwiftestServer, UpdateForUnknownSessionIgnored) {
  ServerNet net;
  SwiftestServer server(net.sched, {});
  net.control(server, serialize(RateUpdate{99, 50'000, 1}));
  net.control(server, serialize(TestComplete{99, 1, 1}));
  EXPECT_EQ(server.stats().rate_updates_applied, 0u);
  EXPECT_EQ(server.stats().completions, 0u);
}

TEST(SwiftestServer, MultipleSessionsSharePacing) {
  ServerNet net;
  SwiftestServer server(net.sched, {});
  net.control(server, serialize(request_for(1, 20.0)));
  net.control(server, serialize(request_for(2, 30.0)));
  EXPECT_EQ(server.active_sessions(), 2u);
  net.sched.run_until(seconds(2));
  const double mbps = static_cast<double>(net.received) * 8.0 / 2.0 / 1e6;
  EXPECT_NEAR(mbps, 50.0, 4.0);
}

}  // namespace
}  // namespace swiftest::swift
