#include "bts/fastbts.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "netsim/testbed.hpp"

namespace swiftest::bts {

CrucialInterval crucial_interval(std::span<const double> samples) {
  CrucialInterval best;
  if (samples.empty()) return best;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());

  const double eps = std::max(1e-6, 0.01 * (sorted.back() - sorted.front() + 1.0));
  double best_score = -1.0;
  // Prefix sums for O(1) interval means.
  std::vector<double> prefix(sorted.size() + 1, 0.0);
  for (std::size_t i = 0; i < sorted.size(); ++i) prefix[i + 1] = prefix[i] + sorted[i];

  for (std::size_t i = 0; i < sorted.size(); ++i) {
    for (std::size_t j = i; j < sorted.size(); ++j) {
      const double width = sorted[j] - sorted[i];
      const auto k = static_cast<double>(j - i + 1);
      const double score = k * k / (width + eps);
      if (score > best_score) {
        best_score = score;
        best.low = sorted[i];
        best.high = sorted[j];
        best.count = j - i + 1;
        best.estimate = (prefix[j + 1] - prefix[i]) / k;
      }
    }
  }
  return best;
}

FastBtsCi::FastBtsCi(FastBtsConfig config) : config_(config) {}

BtsResult FastBtsCi::run(netsim::ClientContext& client) {
  BtsResult result;
  auto& sched = client.scheduler();

  TestSpanScope scope(client, "fastbts.test");
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
  double last_estimate = 0.0;
  double final_estimate = 0.0;
  int stable = 0;
  bool done = false;

  sampler.start(config_.sample_interval, [&](double) {
    const CrucialInterval ci = crucial_interval(sampler.samples());
    final_estimate = ci.estimate;
    const double prev = last_estimate;
    last_estimate = ci.estimate;
    if (sched.now() - start < config_.min_duration) return true;
    if (prev > 0.0 && std::abs(ci.estimate - prev) / prev <= config_.stability_tolerance) {
      if (++stable >= config_.stable_rounds) {
        done = true;
        return false;
      }
    } else {
      stable = 0;
    }
    return true;
  });

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
  result.bandwidth_mbps = final_estimate;
  scope.finish(result, connections.size());
  return result;
}

}  // namespace swiftest::bts
