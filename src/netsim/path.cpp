#include "netsim/path.hpp"

#include <utility>

namespace swiftest::netsim {

Path::Path(Scheduler& sched, LinkBase& access_link, core::SimDuration server_delay,
           LinkBase* egress)
    : sched_(sched),
      link_(access_link),
      server_delay_(server_delay),
      pool_(sched.transit_pool()),
      egress_(egress) {}

void Path::send_downstream(Packet packet, DeliveryFn client_sink) {
  const std::uint32_t node = pool_.alloc();  // one ref, owned by this scope
  pool_.at(node).sink = std::move(client_sink);
  if (egress_ != nullptr) {
    // The EgressHop takes over our ref; if the egress link drops the packet
    // the hop's destructor releases the node (and the client sink with it).
    egress_->send(std::move(packet), DeliveryFn(EgressHop(this, node)));
    return;
  }
  start_backbone(node, std::move(packet));
}

void Path::enter_backbone(std::uint32_t node, const Packet& pkt) {
  // Called from inside an EgressHop which still owns its ref (released when
  // the link destroys the hop after this returns) — take one for the timer.
  pool_.add_ref(node);
  start_backbone(node, pkt);
}

void Path::start_backbone(std::uint32_t node, Packet pkt) {
  // Owns one ref on `node`; parks the packet there for the backbone leg.
  pool_.at(node).packet = std::move(pkt);
  sched_.schedule_in(server_delay_, [this, node] {
    Packet pkt = std::move(pool_.at(node).packet);
    // The AccessHop inherits the timer's ref; invoked or dropped by the
    // access link, its destructor settles the node.
    link_.send(std::move(pkt), DeliveryFn(AccessHop(this, node)));
  });
}

void Path::finish_downstream(std::uint32_t node, const Packet& pkt) {
  // Detach the sink before invoking: it may re-enter and grow the pool.
  DeliveryFn sink = std::move(pool_.at(node).sink);
  sink(pkt);
}

void Path::send_upstream(Packet packet, DeliveryFn server_sink) {
  const core::SimDuration delay = link_.propagation_delay() + server_delay_;
  const std::uint32_t node = pool_.alloc();
  TransitNode& n = pool_.at(node);
  n.packet = std::move(packet);
  n.sink = std::move(server_sink);
  sched_.schedule_in(delay, [this, node] {
    TransitNode& inner = pool_.at(node);
    DeliveryFn sink = std::move(inner.sink);
    Packet pkt = std::move(inner.packet);
    pool_.release(node);
    sink(pkt);
  });
}

core::SimDuration Path::base_rtt() const {
  return 2 * (link_.propagation_delay() + server_delay_);
}

}  // namespace swiftest::netsim
