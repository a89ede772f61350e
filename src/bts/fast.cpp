#include "bts/fast.hpp"

#include <algorithm>
#include <numeric>

#include "netsim/testbed.hpp"

namespace swiftest::bts {

FastBts::FastBts(FastConfig config) : config_(config) {}

bool FastBts::converged(std::span<const double> samples, std::size_t window,
                        double tolerance) {
  if (samples.size() < window || window == 0) return false;
  const auto tail = samples.subspan(samples.size() - window);
  const double hi = *std::max_element(tail.begin(), tail.end());
  const double lo = *std::min_element(tail.begin(), tail.end());
  if (hi <= 0.0) return false;
  return (hi - lo) / hi <= tolerance;
}

BtsResult FastBts::run(netsim::ClientContext& client) {
  BtsResult result;
  auto& sched = client.scheduler();

  TestSpanScope scope(client, "fast.test");
  const netsim::ServerChoice sel = scope.run_selection(result, config_.ping_candidates);

  ThroughputSampler sampler(sched);
  std::vector<std::unique_ptr<netsim::TcpConnection>> connections;
  const auto mss = netsim::suggested_mss(client.access_config().access_rate);
  const std::size_t n_conns =
      std::min(config_.parallel_connections, client.server_count());
  for (std::size_t i = 0; i < n_conns; ++i) {
    netsim::TcpConfig tcp_cfg;
    tcp_cfg.cc = config_.cc;
    tcp_cfg.mss = mss;
    auto conn = std::make_unique<netsim::TcpConnection>(
        sched, client.server_path((sel.server + i) % client.server_count()), tcp_cfg,
        i + 1);
    conn->set_on_delivered([&sampler](std::int64_t bytes) { sampler.add_bytes(bytes); });
    conn->start();
    connections.push_back(std::move(conn));
  }

  const core::SimTime start = sched.now();
  const core::SimTime hard_stop = start + config_.max_duration;
  bool done = false;
  sampler.start(config_.sample_interval, [&](double) {
    const core::SimDuration elapsed = sched.now() - start;
    if (elapsed < config_.min_duration) return true;
    if (converged(sampler.samples(), config_.convergence_window,
                  config_.convergence_tolerance)) {
      done = true;
      return false;
    }
    return true;
  });

  // Run until convergence (sampler stops itself) or the hard cap.
  scope.begin_probe();
  while (!done && sched.now() < hard_stop) {
    const core::SimTime step = std::min<core::SimTime>(sched.now() + core::milliseconds(250),
                                                       hard_stop);
    sched.run_until(step);
  }
  sampler.stop();
  for (auto& conn : connections) conn->stop();
  scope.end_probe();

  result.probe_duration = sched.now() - start;
  result.samples_mbps = sampler.samples();
  result.connections_used = connections.size();
  std::int64_t wire_bytes = 0;
  for (const auto& conn : connections) wire_bytes += conn->stats().wire_bytes_received;
  result.data_used = core::Bytes(wire_bytes);

  // Estimate: mean of the trailing convergence window.
  const auto& samples = result.samples_mbps;
  const std::size_t window = std::min(config_.convergence_window, samples.size());
  if (window > 0) {
    result.bandwidth_mbps =
        std::accumulate(samples.end() - static_cast<std::ptrdiff_t>(window), samples.end(),
                        0.0) /
        static_cast<double>(window);
  }
  scope.finish(result, connections.size());
  return result;
}

}  // namespace swiftest::bts
