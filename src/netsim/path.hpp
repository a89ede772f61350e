// A duplex path between a test server and a client.
//
// Downstream (server -> client) traffic optionally traverses the server's
// egress link, fixed at construction (a budget VM's 100 Mbps uplink can
// itself bottleneck a test), then a per-server backbone delay, then the
// client's shared access link — the bottleneck whose rate is the quantity a
// bandwidth test estimates. Upstream (client -> server) traffic is ACKs and
// small control messages, modelled as a pure delay (the uplink is never the
// bottleneck in a download test).
#pragma once

#include <cstdint>

#include "core/time.hpp"
#include "netsim/link_base.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/transit_pool.hpp"

namespace swiftest::netsim {

class Path {
 public:
  using DeliveryFn = LinkBase::DeliveryFn;

  /// `access_link` is shared among all paths of one client; `server_delay` is
  /// the one-way delay between this server and the access link. `egress`,
  /// when given, is the server's uplink in front of the backbone delay (one
  /// queue per fleet server, contended by every client crossing it — the
  /// Testbed wiring); it is fixed for the path's lifetime and must outlive it.
  Path(Scheduler& sched, LinkBase& access_link, core::SimDuration server_delay,
       LinkBase* egress = nullptr);

  /// Server -> client: (optional egress link,) backbone delay, access link.
  void send_downstream(Packet packet, DeliveryFn client_sink);

  /// Client -> server: pure delay, lossless.
  void send_upstream(Packet packet, DeliveryFn server_sink);

  /// Base (unloaded) round-trip time for a small packet, excluding
  /// serialization of data segments.
  [[nodiscard]] core::SimDuration base_rtt() const;

  [[nodiscard]] LinkBase& access_link() noexcept { return link_; }
  [[nodiscard]] core::SimDuration server_delay() const noexcept { return server_delay_; }
  /// The server egress link, or null when the server is unconstrained.
  [[nodiscard]] LinkBase* server_egress() noexcept { return egress_; }

 private:
  // A packet in flight is one pooled transit node carrying the client sink
  // (and, on the backbone leg, the packet itself); every closure involved
  // captures only {this, node index}. The hop functors below are refcounted
  // owners of the node, so a link that drops the packet — destroying the
  // delivery functor it was handed without invoking it — releases the node
  // and its captured sink with it. Hops release through the scheduler-owned
  // pool, never through the Path: a link being torn down may destroy hops
  // after the Path itself is already gone.
  struct Hop {
    Path* path = nullptr;       // only dereferenced on invocation
    TransitPool* pool = nullptr;  // outlives every link and path
    std::uint32_t node = 0;
    Hop(Path* p, std::uint32_t n) noexcept : path(p), pool(&p->pool_), node(n) {}
    Hop(const Hop& o) noexcept : path(o.path), pool(o.pool), node(o.node) {
      if (pool != nullptr) pool->add_ref(node);
    }
    Hop(Hop&& o) noexcept : path(o.path), pool(o.pool), node(o.node) { o.pool = nullptr; }
    Hop& operator=(const Hop&) = delete;
    Hop& operator=(Hop&&) = delete;
    ~Hop() {
      if (pool != nullptr) pool->release(node);
    }
  };
  struct EgressHop : Hop {
    using Hop::Hop;
    void operator()(const Packet& pkt) const { path->enter_backbone(node, pkt); }
  };
  struct AccessHop : Hop {
    using Hop::Hop;
    void operator()(const Packet& pkt) const { path->finish_downstream(node, pkt); }
  };

  void enter_backbone(std::uint32_t node, const Packet& pkt);
  void start_backbone(std::uint32_t node, Packet pkt);
  void finish_downstream(std::uint32_t node, const Packet& pkt);

  Scheduler& sched_;
  LinkBase& link_;
  core::SimDuration server_delay_;
  TransitPool& pool_;  // the scheduler's shared per-shard pool
  LinkBase* egress_;  // optional server uplink, shared by the fleet server's paths
};

}  // namespace swiftest::netsim
