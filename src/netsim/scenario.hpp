// Legacy single-client test scenario: a thin facade over netsim::Testbed.
//
// A bandwidth test simulation needs a client access link (the bottleneck
// whose rate is the ground truth the tester tries to estimate), a set of
// candidate test servers at various backbone distances, and optional cross
// traffic. Scenario packages exactly one client of a Testbed behind the
// historical one-client API; it converts implicitly to the client's
// ClientContext, so every bts::BandwidthTester runs on it unchanged. For
// concurrent multi-client simulations build a Testbed directly
// (testbed.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "netsim/testbed.hpp"

namespace swiftest::netsim {

struct ScenarioConfig {
  /// True capacity of the client's access link — the quantity under test.
  core::Bandwidth access_rate = core::Bandwidth::mbps(100);
  /// One-way propagation delay of the access segment (radio + last mile).
  core::SimDuration access_delay = core::milliseconds(10);
  /// Per-server one-way backbone delay is drawn uniformly from this range.
  core::SimDuration server_delay_min = core::milliseconds(2);
  core::SimDuration server_delay_max = core::milliseconds(25);
  std::size_t server_count = 10;
  /// Per-server egress capacity; zero = unconstrained (ISP-grade servers).
  /// Budget deployments (Swiftest's 100 Mbps VMs) set this so the server
  /// uplink itself can bottleneck a test.
  core::Bandwidth server_uplink = core::Bandwidth::zero();
  /// Random (wireless) loss on the access link.
  double random_loss = 0.0;
  /// Bottleneck buffer, as a multiple of the access BDP at 50 ms.
  double queue_bdp_multiple = 1.0;
  /// Background cross traffic sharing the access link.
  bool enable_cross_traffic = false;
  CrossTraffic::Config cross_traffic;
  /// Queueing discipline at the access bottleneck: FIFO DropTail (default)
  /// or per-flow deficit round robin (the BS proportional-fair backstop
  /// §5.1 relies on).
  bool fair_queuing = false;

  /// The equivalent one-client testbed configuration.
  [[nodiscard]] TestbedConfig to_testbed_config() const;
};

class Scenario {
 public:
  Scenario(ScenarioConfig config, std::uint64_t seed);

  [[nodiscard]] Scheduler& scheduler() noexcept { return testbed_.scheduler(); }
  [[nodiscard]] LinkBase& access_link() noexcept { return client().access_link(); }
  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return testbed_.server_count();
  }
  [[nodiscard]] Path& server_path(std::size_t i) { return client().server_path(i); }

  /// Simulated PING to server i: base RTT plus a small measurement jitter.
  [[nodiscard]] core::SimDuration measure_ping(std::size_t i) {
    return client().measure_ping(i);
  }

  /// Fork of the scenario RNG for components that need their own stream.
  [[nodiscard]] core::Rng fork_rng() { return testbed_.fork_rng(); }

  void start_cross_traffic() { client().start_cross_traffic(); }
  void stop_cross_traffic() { client().stop_cross_traffic(); }

  /// The single client this scenario wraps. Testers take a ClientContext;
  /// the implicit conversion keeps Scenario-based call sites source
  /// compatible.
  [[nodiscard]] ClientContext& client() { return testbed_.client(0); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  [[nodiscard]] operator ClientContext&() { return client(); }

  /// The underlying substrate (e.g. for inspecting shared server egress).
  [[nodiscard]] Testbed& testbed() noexcept { return testbed_; }

 private:
  ScenarioConfig config_;
  Testbed testbed_;
};

}  // namespace swiftest::netsim
