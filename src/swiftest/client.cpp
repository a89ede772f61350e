#include "swiftest/client.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/span/span.hpp"

namespace swiftest::swift {

SwiftestClient::SwiftestClient(SwiftestConfig config, const ModelRegistry& registry)
    : config_(config), registry_(registry) {}

std::size_t SwiftestClient::servers_needed(double rate_mbps, double uplink_mbps) {
  if (uplink_mbps <= 0.0) return 1;
  return static_cast<std::size_t>(std::max(1.0, std::ceil(rate_mbps / uplink_mbps)));
}

bts::BtsResult SwiftestClient::run(netsim::ClientContext& client) {
  bts::BtsResult result;
  auto& sched = client.scheduler();
  const auto& model = registry_.model(config_.tech);

  // Stage spans mirror the wire client's decomposition; the facade has no
  // nonce, so the tree stands alone (trace_id 0).
  obs::span::SpanStore* spans = sched.spans();
  auto begin_span = [&](const char* name, obs::span::SpanId parent) {
    return spans != nullptr
               ? spans->begin(sched.now(), obs::Category::kProtocol, name, parent)
               : obs::span::kNoSpan;
  };
  auto end_span = [&](obs::span::SpanId id) {
    if (spans != nullptr) spans->end(id, sched.now());
  };
  const obs::span::SpanId span_test = begin_span("swiftest.test", obs::span::kNoSpan);
  if (spans != nullptr) spans->attr_u64(span_test, "client", client.index());

  // 1. Server selection: Swiftest PINGs the whole (small) server pool, four
  // probes in flight at a time (~0.2 s total, §5.3).
  const obs::span::SpanId span_select = begin_span("swiftest.select_server", span_test);
  const netsim::ServerChoice sel =
      client.select_server(client.server_count(), /*concurrency=*/4);
  result.ping_duration = sel.elapsed;
  sched.run_until(sched.now() + sel.elapsed);
  if (spans != nullptr) spans->attr_u64(span_select, "server", sel.server);
  end_span(span_select);

  // 2. The §5.1 probing state machine, seeded by the model.
  ProbingFsmConfig fsm_cfg;
  fsm_cfg.convergence_window = config_.convergence_window;
  fsm_cfg.convergence_tolerance = config_.convergence_tolerance;
  fsm_cfg.saturation_epsilon = config_.saturation_epsilon;
  fsm_cfg.overshoot_factor = config_.overshoot_factor;
  // At very low rates a 50 ms sample holds only a handful of datagrams; one
  // packet of arrival jitter would defeat a purely relative tolerance.
  fsm_cfg.quantization_floor_mbps = 3.0 * (config_.probe_payload_bytes + 28) * 8.0 /
                                    core::to_seconds(config_.sample_interval) / 1e6;
  ProbingFsm fsm(fsm_cfg, model);

  bts::ThroughputSampler sampler(sched);
  std::vector<std::unique_ptr<netsim::UdpFlow>> flows;

  // Facade tests have no wire nonce; stage events key on id 0.
  auto trace_stage = [&sched](obs::EventKind kind, const char* name, double value) {
    if (auto* tr = sched.tracer(obs::Category::kProtocol)) {
      tr->record(sched.now(), obs::Category::kProtocol, kind, name, 0, value);
    }
  };

  auto apply_rate = [&](double total_mbps) {
    const std::size_t needed = std::min(
        servers_needed(total_mbps, config_.server_uplink_mbps), client.server_count());
    while (flows.size() < needed) {
      const std::size_t server = (sel.server + flows.size()) % client.server_count();
      auto flow = std::make_unique<netsim::UdpFlow>(sched, client.server_path(server),
                                                    flows.size() + 1,
                                                    config_.probe_payload_bytes);
      flow->set_on_delivered(
          [&sampler](std::int64_t bytes, std::int64_t) { sampler.add_bytes(bytes); });
      flows.push_back(std::move(flow));
    }
    const double per_flow = total_mbps / static_cast<double>(flows.size());
    for (auto& flow : flows) flow->set_rate(core::Bandwidth::mbps(per_flow));
  };

  if (auto* hub = sched.obs()) hub->metrics.counter("probe.tests_started").inc();
  trace_stage(obs::EventKind::kInstant, "probe.start", fsm.rate_mbps());

  obs::span::SpanId span_handshake = begin_span("swiftest.handshake", span_test);
  obs::span::SpanId span_round = obs::span::kNoSpan;
  std::uint32_t round_index = 0;
  auto begin_round_span = [&]() -> obs::span::SpanId {
    if (spans == nullptr) return obs::span::kNoSpan;
    const obs::span::SpanId id = begin_span("swiftest.round", span_test);
    spans->attr_u64(id, "round", ++round_index);
    spans->attr_f64(id, "rate_mbps", fsm.rate_mbps());
    return id;
  };

  apply_rate(fsm.rate_mbps());

  const core::SimTime start = sched.now();
  const core::SimTime hard_stop = start + config_.max_duration;
  bool done = false;

  sampler.start(config_.sample_interval, [&](double sample_mbps) {
    trace_stage(obs::EventKind::kCounter, "probe.sample_mbps", sample_mbps);
    if (span_handshake != obs::span::kNoSpan) {
      end_span(span_handshake);
      span_handshake = obs::span::kNoSpan;
      span_round = begin_round_span();
    }
    switch (fsm.on_sample(sample_mbps)) {
      case ProbingFsm::Action::kEscalate:
        if (auto* hub = sched.obs()) hub->metrics.counter("probe.escalations").inc();
        trace_stage(obs::EventKind::kInstant, "probe.escalate", fsm.rate_mbps());
        end_span(span_round);
        span_round = begin_round_span();
        apply_rate(fsm.rate_mbps());
        return true;
      case ProbingFsm::Action::kConverged:
        trace_stage(obs::EventKind::kInstant, "probe.converged",
                    fsm.fallback_estimate());
        // Split the final round at the trailing convergence window, exactly
        // as the wire client does.
        if (spans != nullptr) {
          const core::SimTime now = sched.now();
          const core::SimDuration window =
              static_cast<core::SimDuration>(config_.convergence_window) *
              config_.sample_interval;
          core::SimTime conv_start = now > window ? now - window : 0;
          const auto& recs = spans->spans();
          if (span_round != obs::span::kNoSpan && span_round <= recs.size()) {
            conv_start = std::max(conv_start, recs[span_round - 1].start);
          }
          spans->end(span_round, conv_start);
          span_round = obs::span::kNoSpan;
          const obs::span::SpanId conv =
              spans->begin(conv_start, obs::Category::kProtocol,
                           "swiftest.convergence", span_test);
          spans->attr_f64(conv, "estimate_mbps", fsm.fallback_estimate());
          spans->attr_u64(conv, "window", config_.convergence_window);
          spans->end(conv, now);
        }
        done = true;
        return false;
      case ProbingFsm::Action::kContinue:
        return true;
    }
    return true;
  });

  while (!done && sched.now() < hard_stop) {
    const core::SimTime step =
        std::min<core::SimTime>(sched.now() + core::milliseconds(100), hard_stop);
    sched.run_until(step);
  }
  sampler.stop();
  for (auto& flow : flows) flow->stop();

  result.probe_duration = sched.now() - start;
  result.samples_mbps = sampler.samples();
  result.connections_used = flows.size();
  std::int64_t wire_bytes = 0;
  for (const auto& flow : flows) wire_bytes += flow->wire_bytes_delivered();
  result.data_used = core::Bytes(wire_bytes);

  result.bandwidth_mbps = fsm.fallback_estimate();  // == result when converged
  if (auto* hub = sched.obs()) {
    hub->metrics.counter("probe.tests_completed").inc();
    hub->metrics
        .histogram("probe.test_seconds", {1.0, 2.0, 5.0, 10.0, 15.0, 30.0})
        .observe(core::to_seconds(result.probe_duration));
  }
  trace_stage(obs::EventKind::kInstant, "probe.complete", result.bandwidth_mbps);
  // A hard stop lands mid-round (or even mid-handshake): close what's open.
  end_span(span_round);
  end_span(span_handshake);
  if (spans != nullptr) {
    spans->attr_f64(span_test, "estimate_mbps", result.bandwidth_mbps);
    spans->attr_u64(span_test, "servers", flows.size());
  }
  end_span(span_test);
  return result;
}

}  // namespace swiftest::swift
