#include "netsim/testbed.hpp"

#include <algorithm>

namespace swiftest::netsim {

std::int32_t suggested_mss(core::Bandwidth rate) {
  const double mbps = rate.megabits_per_second();
  if (mbps <= 200.0) return kDefaultMss;
  if (mbps <= 600.0) return kDefaultMss * 2;
  return kDefaultMss * 4;
}

Scheduler& ClientContext::scheduler() noexcept { return owner_->sched_; }

core::SimDuration ClientContext::measure_ping(std::size_t i) {
  const core::SimDuration base = paths_.at(i)->base_rtt();
  // ICMP-style jitter: up to 10% inflation from scheduling and queueing.
  return base + static_cast<core::SimDuration>(owner_->rng_.uniform(0.0, 0.1) *
                                               static_cast<double>(base));
}

ServerChoice ClientContext::select_server(std::size_t candidates,
                                          std::size_t concurrency) {
  ServerChoice sel;
  candidates = std::min(candidates, paths_.size());
  concurrency = std::max<std::size_t>(1, concurrency);
  core::SimDuration best = core::kSimTimeMax;
  core::SimDuration batch_max = 0;
  std::size_t in_batch = 0;
  for (std::size_t i = 0; i < candidates; ++i) {
    const core::SimDuration rtt = measure_ping(i);
    batch_max = std::max(batch_max, rtt);
    if (++in_batch == concurrency || i + 1 == candidates) {
      sel.elapsed += batch_max;  // a batch completes when its slowest PING does
      batch_max = 0;
      in_batch = 0;
    }
    if (rtt < best) {
      best = rtt;
      sel.server = i;
    }
  }
  return sel;
}

core::Rng ClientContext::fork_rng() { return owner_->rng_.fork(); }

void ClientContext::start_cross_traffic() {
  if (cross_) cross_->start();
}

void ClientContext::stop_cross_traffic() {
  if (cross_) cross_->stop();
}

Testbed::Testbed(TestbedConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {
  server_egress_.resize(config_.fleet.server_count);
  for (const auto& client_config : config_.clients) add_client(client_config);
}

std::size_t Testbed::add_client(ClientAccessConfig config) {
  const std::size_t index = clients_.size();
  auto ctx = std::unique_ptr<ClientContext>(new ClientContext(*this, index, config));

  const double bdp_bytes = config.access_rate.bits_per_second() * 0.050 / 8.0 *
                           config.queue_bdp_multiple;
  const core::Bytes buffer(
      std::max<std::int64_t>(static_cast<std::int64_t>(bdp_bytes), 64 * 1024));
  if (config.fair_queuing) {
    FairLinkConfig lc;
    lc.rate = config.access_rate;
    lc.propagation_delay = config.access_delay;
    lc.random_loss = config.random_loss;
    lc.per_flow_queue = buffer;  // each flow gets a BDP-scale queue
    ctx->link_ = std::make_unique<FairLink>(sched_, lc, rng_.fork());
  } else {
    LinkConfig lc;
    lc.rate = config.access_rate;
    lc.propagation_delay = config.access_delay;
    lc.random_loss = config.random_loss;
    lc.queue_capacity = buffer;
    ctx->link_ = std::make_unique<Link>(sched_, lc, rng_.fork());
  }

  const FleetConfig& fleet = config_.fleet;
  ctx->paths_.reserve(fleet.server_count);
  for (std::size_t s = 0; s < fleet.server_count; ++s) {
    const auto delay = static_cast<core::SimDuration>(
        rng_.uniform(static_cast<double>(fleet.server_delay_min),
                     static_cast<double>(fleet.server_delay_max)));
    // Shared egress created on first use so the (uniform, fork) interleaving
    // matches the legacy Scenario constructor draw for draw. Fair-queued per
    // flow: a Linux server's fq qdisc, so identically-paced concurrent
    // sessions share the uplink instead of phase-locking in one FIFO.
    if (!fleet.server_uplink.is_zero() && !server_egress_[s]) {
      FairLinkConfig egress_cfg;
      egress_cfg.rate = fleet.server_uplink;
      egress_cfg.propagation_delay = 0;  // backbone delay modelled per path
      // Server-side buffer: ~50 ms at the uplink rate.
      egress_cfg.per_flow_queue = core::Bytes(std::max<std::int64_t>(
          static_cast<std::int64_t>(fleet.server_uplink.bits_per_second() * 0.050 / 8.0),
          64 * 1024));
      server_egress_[s] = std::make_unique<FairLink>(sched_, egress_cfg, rng_.fork());
    }
    ctx->paths_.push_back(
        std::make_unique<Path>(sched_, *ctx->link_, delay, server_egress_[s].get()));
  }

  if (config.enable_cross_traffic) {
    ctx->cross_ = std::make_unique<CrossTraffic>(
        sched_, *ctx->paths_.front(), /*flow_id=*/0xC207 + index,
        config.cross_traffic, rng_.fork());
  }

  clients_.push_back(std::move(ctx));
  return index;
}

}  // namespace swiftest::netsim
