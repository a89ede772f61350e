// Seeded mutational fuzzing of the wire protocol.
//
// Each serialized message (ProbeRequest, RateUpdate, TestComplete, ProbeData)
// seeds kMutantsPerMessage mutants (tests/support/mutate.hpp). Every mutant,
// as an exactly sized buffer, goes through peek_type and the parse_* of the
// type it claims, then through SwiftestServer::on_control_message, the
// server's one entry point. The server must count as garbled exactly the
// mutants the parsers reject plus the ProbeData mutants that do parse
// (downstream-only, so misuse upstream), and never hold more sessions than
// its cap. tools/ci.sh runs it under ASan/UBSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "netsim/link.hpp"
#include "netsim/path.hpp"
#include "support/mutate.hpp"
#include "swiftest/protocol.hpp"
#include "swiftest/server.hpp"

namespace swiftest::swift {
namespace {

using core::Bandwidth;
using core::milliseconds;

constexpr int kMutantsPerMessage = 1000;

/// The header's magic bytes, the version, every message type, and boundary
/// values.
constexpr std::string_view kWireTokens{"\x53\x57\x00\x01\x02\x03\x04\x05\x7f\x80\xff", 11};

/// True when `bytes` parse as the message type they claim.
bool parses(std::span<const std::uint8_t> bytes, MessageType type) {
  switch (type) {
    case MessageType::kProbeRequest:
      return parse_probe_request(bytes).has_value();
    case MessageType::kRateUpdate:
      return parse_rate_update(bytes).has_value();
    case MessageType::kProbeData:
      return parse_probe_data(bytes).has_value();
    case MessageType::kTestComplete:
      return parse_test_complete(bytes).has_value();
  }
  return false;
}

TEST(WireParserFuzz, ServerCountsExactlyTheMutantsParsersReject) {
  netsim::Scheduler sched;
  netsim::Link link(sched, netsim::LinkConfig{Bandwidth::gbps(1), milliseconds(5)},
                    core::Rng(1));
  netsim::Path path(sched, link, milliseconds(5));
  std::int64_t probe_bytes = 0;
  const netsim::Path::DeliveryFn sink = [&](const netsim::Packet& pkt) {
    probe_bytes += pkt.size_bytes;
  };
  ServerConfig cfg;
  cfg.uplink = Bandwidth::mbps(1);  // keeps the probe stream small
  cfg.max_sessions = 8;
  SwiftestServer server(sched, cfg);

  // One nonce throughout, so RateUpdate and TestComplete mutants that keep
  // it reach a live session.
  constexpr std::uint64_t kNonce = 7;
  const std::vector<std::vector<std::uint8_t>> seeds = {
      serialize(ProbeRequest{dataset::AccessTech::k5G, 500, kNonce}),
      serialize(RateUpdate{kNonce, 800, 1}),
      serialize(TestComplete{kNonce, 700, 12}),
      serialize(ProbeData{1, 2}),
  };

  std::uint64_t rejected = 0;
  std::uint64_t probe_data_parsed = 0;
  core::Rng rng(0xF022);
  for (const auto& seed : seeds) {
    const auto seed_type = peek_type(seed);
    ASSERT_TRUE(seed_type.has_value());
    ASSERT_TRUE(parses(seed, *seed_type));
    for (int i = 0; i < kMutantsPerMessage; ++i) {
      const std::vector<std::uint8_t> doc = test_support::mutate(seed, rng, kWireTokens);
      const auto exact = test_support::exact_copy(doc);
      const std::span<const std::uint8_t> bytes(exact.get(), doc.size());

      const auto type = peek_type(bytes);
      if (!type || !parses(bytes, *type)) {
        ++rejected;
      } else if (*type == MessageType::kProbeData) {
        ++probe_data_parsed;
      }
      server.on_control_message(bytes, path, sink);
      ASSERT_LE(server.active_sessions(), cfg.max_sessions);
      sched.run_until(sched.now() + milliseconds(10));
    }
  }

  EXPECT_GT(rejected, 0u);
  EXPECT_GT(probe_data_parsed, 0u);
  EXPECT_EQ(server.stats().garbled_messages, rejected + probe_data_parsed);
  EXPECT_GT(server.stats().requests_accepted, 0u);
  EXPECT_GT(server.stats().requests_rejected, 0u);  // the session cap was hit
  EXPECT_GT(probe_bytes, 0);
}

}  // namespace
}  // namespace swiftest::swift
