// Multi-client test substrate: N client access networks sharing one server
// fleet.
//
// The paper's §5.2-§5.3 claims are about many clients contending for a small
// fleet of budget servers: each server's egress uplink is one physical queue
// that every concurrent session crosses. The Testbed models exactly that —
// per-client access links (the quantities under test) plus per-server shared
// egress Links — wired to a single Scheduler so concurrent tests interleave
// packet by packet. A ClientContext is one client's view of the testbed
// (access link, paths to every server, RNG fork); testers run against a
// ClientContext, never the whole Testbed. The legacy one-client Scenario
// (scenario.hpp) is a thin facade over a one-client Testbed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "netsim/fair_link.hpp"
#include "netsim/link.hpp"
#include "netsim/link_base.hpp"
#include "netsim/path.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/udp.hpp"

namespace swiftest::netsim {

/// One client's access segment — the bottleneck whose rate is the ground
/// truth a bandwidth test estimates.
struct ClientAccessConfig {
  /// True capacity of the client's access link — the quantity under test.
  core::Bandwidth access_rate = core::Bandwidth::mbps(100);
  /// One-way propagation delay of the access segment (radio + last mile).
  core::SimDuration access_delay = core::milliseconds(10);
  /// Random (wireless) loss on the access link.
  double random_loss = 0.0;
  /// Bottleneck buffer, as a multiple of the access BDP at 50 ms.
  double queue_bdp_multiple = 1.0;
  /// Queueing discipline at the access bottleneck: FIFO DropTail (default)
  /// or per-flow deficit round robin (the BS proportional-fair backstop
  /// §5.1 relies on).
  bool fair_queuing = false;
  /// Background cross traffic sharing the access link.
  bool enable_cross_traffic = false;
  CrossTraffic::Config cross_traffic;
};

/// The shared server fleet every client connects to.
struct FleetConfig {
  std::size_t server_count = 10;
  /// Per-(client, server) one-way backbone delay is drawn uniformly from
  /// this range (clients sit at different points of the backbone).
  core::SimDuration server_delay_min = core::milliseconds(2);
  core::SimDuration server_delay_max = core::milliseconds(25);
  /// Per-server egress capacity; zero = unconstrained (ISP-grade servers).
  /// Budget deployments (Swiftest's 100 Mbps VMs, §5.2) set this so the
  /// server uplink itself bottlenecks concurrent tests: the egress is ONE
  /// queue shared by every session of every client crossing that server.
  core::Bandwidth server_uplink = core::Bandwidth::zero();
};

struct TestbedConfig {
  FleetConfig fleet;
  /// Clients present from construction; more can join via add_client().
  std::vector<ClientAccessConfig> clients = {ClientAccessConfig{}};
};

/// Result of the PING/server-selection stage.
struct ServerChoice {
  std::size_t server = 0;
  core::SimDuration elapsed = 0;
};

/// Segment size for TCP flows at the given rate. Models NIC/stack segment
/// aggregation (GSO/GRO): high-rate paths move data in larger bursts, which
/// also keeps simulated event counts proportionate.
[[nodiscard]] std::int32_t suggested_mss(core::Bandwidth rate);

class Testbed;

/// One client's view of the testbed: its access link, its path to every
/// fleet server, and the shared scheduler/RNG. This is the substrate a
/// single bandwidth test runs on (bts::BandwidthTester takes one).
class ClientContext {
 public:
  ClientContext(const ClientContext&) = delete;
  ClientContext& operator=(const ClientContext&) = delete;

  [[nodiscard]] Scheduler& scheduler() noexcept;
  [[nodiscard]] LinkBase& access_link() noexcept { return *link_; }
  [[nodiscard]] const ClientAccessConfig& access_config() const noexcept {
    return config_;
  }
  /// This client's index within the owning Testbed.
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] std::size_t server_count() const noexcept { return paths_.size(); }
  [[nodiscard]] Path& server_path(std::size_t i) { return *paths_.at(i); }

  /// Simulated PING to server i: base RTT plus a small measurement jitter.
  [[nodiscard]] core::SimDuration measure_ping(std::size_t i);

  /// The standard BTS server-selection step: PING the first `candidates`
  /// servers and pick the lowest latency. `concurrency` pings run in
  /// parallel per batch (BTS-APP issues them one by one; Swiftest batches
  /// them to keep its selection stage around 0.2 s); a batch completes when
  /// its slowest PING does.
  [[nodiscard]] ServerChoice select_server(std::size_t candidates,
                                           std::size_t concurrency = 1);

  /// Fork of the testbed RNG for components that need their own stream.
  /// All clients draw from the one testbed stream so that the single-client
  /// facade reproduces the legacy Scenario's draw order bit for bit.
  [[nodiscard]] core::Rng fork_rng();

  void start_cross_traffic();
  void stop_cross_traffic();

 private:
  friend class Testbed;
  ClientContext(Testbed& owner, std::size_t index, ClientAccessConfig config)
      : owner_(&owner), index_(index), config_(config) {}

  Testbed* owner_;
  std::size_t index_;
  ClientAccessConfig config_;
  std::unique_ptr<LinkBase> link_;
  std::vector<std::unique_ptr<Path>> paths_;
  std::unique_ptr<CrossTraffic> cross_;
};

/// N clients attached to one shared server fleet on one scheduler.
class Testbed {
 public:
  Testbed(TestbedConfig config, std::uint64_t seed);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] const FleetConfig& fleet_config() const noexcept {
    return config_.fleet;
  }

  [[nodiscard]] std::size_t client_count() const noexcept { return clients_.size(); }
  [[nodiscard]] ClientContext& client(std::size_t i = 0) { return *clients_.at(i); }

  /// Attaches another client (own access link, paths to every server) to
  /// the running testbed; returns its index. Safe mid-simulation.
  std::size_t add_client(ClientAccessConfig config);

  [[nodiscard]] std::size_t server_count() const noexcept {
    return config_.fleet.server_count;
  }
  /// The shared egress link of server s — one capacity-bound link crossed by
  /// every session of every client using that server. Per-flow fair-queued
  /// (the fq qdisc a Linux test server runs), so concurrent paced UDP
  /// sessions split the uplink instead of phase-locking in a FIFO. Null when
  /// the fleet is unconstrained (server_uplink == 0).
  [[nodiscard]] LinkBase* server_egress(std::size_t s) {
    return server_egress_.at(s).get();
  }

  [[nodiscard]] core::Rng fork_rng() { return rng_.fork(); }

 private:
  friend class ClientContext;

  TestbedConfig config_;
  core::Rng rng_;
  Scheduler sched_;
  /// One shared egress link per fleet server (null entries when uplink is
  /// unconstrained). Created lazily while wiring the first client so the
  /// RNG draw order matches the legacy single-client Scenario exactly.
  std::vector<std::unique_ptr<LinkBase>> server_egress_;
  std::vector<std::unique_ptr<ClientContext>> clients_;
};

}  // namespace swiftest::netsim
