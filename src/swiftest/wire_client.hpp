// Protocol-complete Swiftest client.
//
// SwiftestClient (client.hpp) drives the simulator's paced flows directly —
// convenient for large sweeps. WireClient is the faithful deployment shape:
// every interaction with the servers goes through serialized protocol.hpp
// messages carried in datagrams, against real SwiftestServer instances with
// their session state, pacing, clamping, and garbage collection. Both share
// the ProbingFsm, so any behavioural difference is transport-induced.
//
// Two ways to run one:
//  - run(client): the synchronous BandwidthTester interface. Drives the
//    scheduler until the test completes.
//  - start(client, on_complete, parent_span): event-driven. Schedules the whole test as
//    scheduler events and returns immediately, so many WireClients can probe
//    one Testbed concurrently.
//
// Server i is reached the same way in both server modes: its control
// datagrams carry the client's reply path and sink to the multi-endpoint
// SwiftestServer's one entry point. Without attach_fleet() the client builds
// private per-run servers as it enlists them; with it, server i is a shared
// ServerFleet endpoint — the configuration where server egress contention
// is real.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "bts/sampler.hpp"
#include "bts/tester.hpp"
#include "swiftest/client.hpp"
#include "swiftest/model_registry.hpp"
#include "swiftest/server.hpp"

namespace swiftest::swift {

class ServerFleet;

class WireClient final : public bts::BandwidthTester {
 public:
  /// Invoked exactly once per started test, when the result is final.
  using CompletionFn = std::function<void(const bts::BtsResult&)>;

  WireClient(SwiftestConfig config, const ModelRegistry& registry,
             ServerConfig server_config = {});
  ~WireClient() override;

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Probe the shared fleet's servers instead of private per-run ones. The
  /// fleet must outlive every test started on this client.
  void attach_fleet(ServerFleet& fleet);

  /// Pin the base server (index modulo the client's server count), skipping
  /// latency-based selection: only the assigned server is PINGed. The
  /// deployment simulator uses this — servers there are assigned by anycast
  /// domain, not measured latency.
  void set_forced_server(std::size_t index);

  /// Starts a test and returns without advancing the scheduler. The test
  /// unfolds as scheduler events; `on_complete` fires when it finishes.
  /// Starting while a test is in flight abandons the old one (its server
  /// sessions are left for idle GC, as with a vanished real client). The
  /// test's "swiftest.test" span opens under `parent_span` (the caller's own
  /// span when it nests the test in a larger operation).
  void start(netsim::ClientContext& client, CompletionFn on_complete = {},
             obs::span::SpanId parent_span = obs::span::kNoSpan);

  /// True between start() and the completion callback.
  [[nodiscard]] bool running() const noexcept;

  /// Synchronous wrapper: start() plus driving the scheduler to completion.
  [[nodiscard]] bts::BtsResult run(netsim::ClientContext& client) override;
  [[nodiscard]] std::string name() const override { return "swiftest-wire"; }

  /// Aggregated server-side statistics from the last completed run's private
  /// servers (zero in fleet mode — read ServerFleet::aggregate_stats there).
  [[nodiscard]] ServerStats last_run_server_stats() const noexcept {
    return server_stats_;
  }

 private:
  struct RunState;

  void abandon();
  static void begin_probing(const std::shared_ptr<RunState>& st);
  static void on_hard_stop(const std::shared_ptr<RunState>& st);
  static void finalize(const std::shared_ptr<RunState>& st);
  static void complete(const std::shared_ptr<RunState>& st);
  static void apply_rate(RunState& st, double total_mbps);
  static void send_control(RunState& st, std::size_t index,
                           std::vector<std::uint8_t> bytes);

  SwiftestConfig config_;
  const ModelRegistry& registry_;
  ServerConfig server_config_;
  ServerStats server_stats_;
  ServerFleet* fleet_ = nullptr;
  bool has_forced_server_ = false;
  std::size_t forced_server_ = 0;
  std::shared_ptr<RunState> state_;
};

}  // namespace swiftest::swift
