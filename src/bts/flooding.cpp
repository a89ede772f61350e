#include "bts/flooding.hpp"

#include <algorithm>
#include <numeric>

#include "netsim/testbed.hpp"

namespace swiftest::bts {

FloodingConfig speedtest_config() {
  FloodingConfig config;
  config.probe_duration = core::seconds(15);
  config.ping_candidates = 10;
  return config;
}

FloodingBts::FloodingBts(FloodingConfig config) : config_(std::move(config)) {}

double FloodingBts::estimate_from_samples(std::span<const double> samples,
                                          std::size_t groups, std::size_t drop_low,
                                          std::size_t drop_high) {
  if (samples.empty() || groups == 0) return 0.0;
  groups = std::min(groups, samples.size());
  const std::size_t per_group = samples.size() / groups;
  if (per_group == 0) return 0.0;

  std::vector<double> group_means;
  group_means.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(g * per_group);
    const double sum = std::accumulate(begin, begin + static_cast<std::ptrdiff_t>(per_group), 0.0);
    group_means.push_back(sum / static_cast<double>(per_group));
  }
  std::sort(group_means.begin(), group_means.end());
  if (drop_low + drop_high >= group_means.size()) {
    // Degenerate configuration: fall back to the overall mean.
    return std::accumulate(group_means.begin(), group_means.end(), 0.0) /
           static_cast<double>(group_means.size());
  }
  const auto first = group_means.begin() + static_cast<std::ptrdiff_t>(drop_low);
  const auto last = group_means.end() - static_cast<std::ptrdiff_t>(drop_high);
  return std::accumulate(first, last, 0.0) / static_cast<double>(last - first);
}

BtsResult FloodingBts::run(netsim::ClientContext& client) {
  BtsResult result;
  auto& sched = client.scheduler();

  TestSpanScope scope(client, "flooding.test");
  const netsim::ServerChoice sel = scope.run_selection(result, config_.ping_candidates);

  ThroughputSampler sampler(sched);
  std::vector<std::unique_ptr<netsim::TcpConnection>> connections;
  const auto mss = netsim::suggested_mss(client.access_config().access_rate);

  auto open_connection = [&](std::size_t server) {
    netsim::TcpConfig tcp_cfg;
    tcp_cfg.cc = config_.cc;
    tcp_cfg.mss = mss;
    auto conn = std::make_unique<netsim::TcpConnection>(
        sched, client.server_path(server), tcp_cfg, connections.size() + 1);
    conn->set_on_delivered([&sampler](std::int64_t bytes) { sampler.add_bytes(bytes); });
    conn->start();
    connections.push_back(std::move(conn));
  };

  open_connection(sel.server);

  // Escalation: each threshold crossing opens one more connection to the
  // next nearby server.
  std::size_t next_threshold = 0;
  const core::SimTime probe_end = sched.now() + config_.probe_duration;
  sampler.start(config_.sample_interval, [&](double sample_mbps) {
    while (next_threshold < config_.escalation_thresholds_mbps.size() &&
           sample_mbps >= config_.escalation_thresholds_mbps[next_threshold]) {
      const std::size_t server = connections.size() % client.server_count();
      open_connection(server);
      ++next_threshold;
    }
    return true;  // flooding runs for the fixed duration regardless
  });

  scope.begin_probe();
  sched.run_until(probe_end);
  sampler.stop();
  for (auto& conn : connections) conn->stop();
  scope.end_probe();

  result.probe_duration = config_.probe_duration;
  result.samples_mbps = sampler.samples();
  result.connections_used = connections.size();
  std::int64_t wire_bytes = 0;
  for (const auto& conn : connections) wire_bytes += conn->stats().wire_bytes_received;
  result.data_used = core::Bytes(wire_bytes);
  result.bandwidth_mbps =
      estimate_from_samples(result.samples_mbps, config_.sample_groups,
                            config_.discard_lowest_groups, config_.discard_highest_groups);
  scope.finish(result, connections.size());
  return result;
}

}  // namespace swiftest::bts
