#include "swiftest/wire_client.hpp"

#include <algorithm>
#include <utility>

#include "core/rng.hpp"
#include "netsim/packet.hpp"
#include "obs/hub.hpp"
#include "obs/span/span.hpp"
#include "swiftest/fleet.hpp"

namespace swiftest::swift {
namespace {

constexpr std::int32_t kControlWireBytes = 48;  // header + message + slack

netsim::Packet make_control_packet(netsim::PayloadArena& arena, std::uint64_t nonce,
                                   std::span<const std::uint8_t> bytes) {
  netsim::Packet pkt;
  pkt.kind = netsim::PacketKind::kUdpControl;
  pkt.flow_id = nonce;
  pkt.size_bytes = kControlWireBytes;
  pkt.payload = arena.intern(bytes);
  return pkt;
}

/// Probing-stage trace helper; all per-test events key on the test nonce.
void trace_protocol(netsim::Scheduler& sched, obs::EventKind kind, const char* name,
                    std::uint64_t id, double value) {
  if (auto* tr = sched.tracer(obs::Category::kProtocol)) {
    tr->record(sched.now(), obs::Category::kProtocol, kind, name, id, value);
  }
}

/// Opens the next probing-round span (child of the test span), annotated
/// with the commanded rate and the round index.
obs::span::SpanId begin_round(obs::span::SpanStore& spans, netsim::Scheduler& sched,
                              obs::span::SpanId test_span, std::uint32_t round,
                              double rate_mbps) {
  const obs::span::SpanId id = spans.begin(sched.now(), obs::Category::kProtocol,
                                           "swiftest.round", test_span);
  spans.attr_u64(id, "round", round);
  spans.attr_f64(id, "rate_mbps", rate_mbps);
  return id;
}

}  // namespace

// All per-test state lives here on the heap so the test can outlive the call
// frame that started it. Scheduler events hold the shared_ptr; the sampler
// callback and packet sinks hold only a raw pointer plus the `alive` flag
// (a shared_ptr capture there would cycle through sampler.on_sample_ and
// leak, because ThroughputSampler::stop does not clear its callback).
struct WireClient::RunState {
  RunState(WireClient* owner_ptr, netsim::ClientContext& ctx,
           const ProbingFsmConfig& fsm_cfg, const stats::GaussianMixture& model)
      : owner(owner_ptr),
        client(&ctx),
        sched(&ctx.scheduler()),
        fsm(fsm_cfg, model),
        sampler(ctx.scheduler()) {}

  WireClient* owner;  // nulled if the WireClient dies or restarts first
  netsim::ClientContext* client;
  netsim::Scheduler* sched;
  SwiftestConfig config;
  ServerConfig server_cfg;
  ServerFleet* fleet = nullptr;

  ProbingFsm fsm;
  bts::ThroughputSampler sampler;
  /// Active server endpoints, in enlistment order. Owned entries (private
  /// mode) also live in owned_servers; fleet entries are borrowed.
  std::vector<SwiftestServer*> servers;
  std::vector<std::unique_ptr<SwiftestServer>> owned_servers;
  netsim::Path::DeliveryFn client_sink;

  std::uint64_t nonce = 1;
  std::uint32_t update_seq = 0;
  std::int64_t wire_bytes = 0;
  std::size_t base_server = 0;

  /// Stage spans (obs/span/). The root test span is registered under the
  /// nonce so server sessions attach to the same tree. Async stages hold
  /// their SpanId here and close it from the event that ends the stage;
  /// abandon() leaves them open on purpose (the analyzer clips open spans,
  /// which is exactly what a vanished client looks like).
  obs::span::SpanId span_test = obs::span::kNoSpan;
  obs::span::SpanId span_handshake = obs::span::kNoSpan;
  obs::span::SpanId span_round = obs::span::kNoSpan;
  obs::span::SpanId span_finalize = obs::span::kNoSpan;
  std::uint32_t round_index = 0;

  core::SimTime start_time = 0;
  core::SimTime hard_stop = 0;
  core::SimTime completion_time = 0;
  bool completion_known = false;
  bool finalized = false;
  bool completed = false;

  std::shared_ptr<bool> alive = std::make_shared<bool>(true);
  std::weak_ptr<RunState> self;  // for callbacks that must re-schedule

  bts::BtsResult result;
  ServerStats server_stats;
  CompletionFn on_complete;

  netsim::EventHandle begin_event;
  netsim::EventHandle hard_stop_tick;
  netsim::EventHandle finalize_event;
  netsim::EventHandle completion_event;
};

WireClient::WireClient(SwiftestConfig config, const ModelRegistry& registry,
                       ServerConfig server_config)
    : config_(config), registry_(registry), server_config_(server_config) {}

WireClient::~WireClient() { abandon(); }

void WireClient::attach_fleet(ServerFleet& fleet) { fleet_ = &fleet; }

void WireClient::set_forced_server(std::size_t index) {
  has_forced_server_ = true;
  forced_server_ = index;
}

bool WireClient::running() const noexcept {
  return state_ != nullptr && !state_->completed;
}

void WireClient::abandon() {
  auto st = state_;
  state_.reset();
  if (!st) return;
  st->owner = nullptr;
  if (st->completed) return;
  // Walk away mid-test: silence every callback and drop our servers. Fleet
  // sessions are left dangling on purpose — the server-side idle GC must
  // clean up after vanished clients, exactly as in deployment.
  *st->alive = false;
  st->finalized = true;
  st->begin_event.cancel();
  st->hard_stop_tick.cancel();
  st->finalize_event.cancel();
  st->completion_event.cancel();
  st->sampler.stop();
  st->owned_servers.clear();
  st->servers.clear();
}

void WireClient::start(netsim::ClientContext& client, CompletionFn on_complete,
                       obs::span::SpanId parent_span) {
  abandon();
  server_stats_ = {};

  const auto& model = registry_.model(config_.tech);
  ProbingFsmConfig fsm_cfg;
  fsm_cfg.convergence_window = config_.convergence_window;
  fsm_cfg.convergence_tolerance = config_.convergence_tolerance;
  fsm_cfg.saturation_epsilon = config_.saturation_epsilon;
  fsm_cfg.overshoot_factor = config_.overshoot_factor;
  fsm_cfg.quantization_floor_mbps = 3.0 * (config_.probe_payload_bytes + 28) * 8.0 /
                                    core::to_seconds(config_.sample_interval) / 1e6;

  auto st = std::make_shared<RunState>(this, client, fsm_cfg, model);
  st->self = st;
  st->config = config_;
  st->server_cfg = server_config_;
  st->server_cfg.probe_payload_bytes = config_.probe_payload_bytes;
  st->fleet = fleet_;
  st->on_complete = std::move(on_complete);

  // Server selection. Swiftest PINGs its (small) pool four at a time; with a
  // forced assignment only that server is PINGed.
  if (has_forced_server_) {
    st->base_server = forced_server_ % client.server_count();
    st->result.ping_duration = client.measure_ping(st->base_server);
  } else {
    const netsim::ServerChoice sel =
        client.select_server(client.server_count(), /*concurrency=*/4);
    st->base_server = sel.server;
    st->result.ping_duration = sel.elapsed;
  }

  // One nonce shared by every per-server session of this test. Drawn after
  // the selection PINGs, matching the historical stream order.
  st->nonce = client.fork_rng().next_u64() | 1;

  // Test span, keyed to the nonce so server sessions join the tree. The
  // selection PINGs happened synchronously above; their span covers
  // [now, now + ping_duration], which is when probing actually begins. With
  // no span store (no Hub, or an unsampled test) span_test stays kNoSpan and
  // every descendant stage below skips too.
  if (auto* spans = client.scheduler().spans()) {
    const core::SimTime t0 = client.scheduler().now();
    st->span_test = spans->begin(t0, obs::Category::kProtocol, "swiftest.test",
                                 parent_span);
    spans->attr_u64(st->span_test, "client", client.index());
    spans->set_trace_id(st->span_test, st->nonce);
    const obs::span::SpanId sel = spans->begin(
        t0, obs::Category::kProtocol, "swiftest.select_server", st->span_test);
    spans->attr_u64(sel, "server", st->base_server);
    spans->end(sel, t0 + st->result.ping_duration);
  }

  RunState* raw = st.get();
  st->client_sink = [raw, alive = st->alive](const netsim::Packet& pkt) {
    if (!*alive) return;
    raw->wire_bytes += pkt.size_bytes;
    if (!pkt.payload || !parse_probe_data(pkt.payload.bytes())) return;  // corrupt probe
    raw->sampler.add_bytes(pkt.size_bytes - netsim::kUdpHeaderBytes);
  };

  state_ = st;
  st->begin_event = client.scheduler().schedule_in(
      st->result.ping_duration, [st] { begin_probing(st); });
}

void WireClient::begin_probing(const std::shared_ptr<RunState>& st) {
  netsim::Scheduler& sched = *st->sched;
  st->start_time = sched.now();
  st->hard_stop = st->start_time + st->config.max_duration;
  st->hard_stop_tick = sched.schedule_at(st->hard_stop, [st] { on_hard_stop(st); });

  if (auto* hub = sched.obs()) hub->metrics.counter("probe.tests_started").inc();
  trace_protocol(sched, obs::EventKind::kInstant, "probe.start", st->nonce,
                 st->fsm.rate_mbps());

  // Handshake: ProbeRequest fan-out until the first throughput sample. The
  // span closes from the first sampler callback.
  if (auto* spans = sched.spans();
      spans != nullptr && st->span_test != obs::span::kNoSpan) {
    st->span_handshake = spans->begin(sched.now(), obs::Category::kProtocol,
                                      "swiftest.handshake", st->span_test);
    spans->attr_f64(st->span_handshake, "rate_mbps", st->fsm.rate_mbps());
  }

  apply_rate(*st, st->fsm.rate_mbps());

  RunState* raw = st.get();
  st->sampler.start(st->config.sample_interval,
                    [raw, alive = st->alive](double sample_mbps) {
    if (!*alive) return false;
    trace_protocol(*raw->sched, obs::EventKind::kCounter, "probe.sample_mbps",
                   raw->nonce, sample_mbps);
    // First sample: the handshake stage is over, round 1 starts here.
    if (raw->span_handshake != obs::span::kNoSpan) {
      if (auto* spans = raw->sched->spans()) {
        spans->end(raw->span_handshake, raw->sched->now());
        raw->span_round = begin_round(*spans, *raw->sched, raw->span_test,
                                      ++raw->round_index, raw->fsm.rate_mbps());
      }
      raw->span_handshake = obs::span::kNoSpan;
    }
    switch (raw->fsm.on_sample(sample_mbps)) {
      case ProbingFsm::Action::kEscalate:
        if (auto* hub = raw->sched->obs()) {
          hub->metrics.counter("probe.escalations").inc();
        }
        trace_protocol(*raw->sched, obs::EventKind::kInstant, "probe.escalate",
                       raw->nonce, raw->fsm.rate_mbps());
        if (auto* spans = raw->sched->spans();
            spans != nullptr && raw->span_test != obs::span::kNoSpan) {
          spans->end(raw->span_round, raw->sched->now());
          raw->span_round = begin_round(*spans, *raw->sched, raw->span_test,
                                        ++raw->round_index, raw->fsm.rate_mbps());
        }
        apply_rate(*raw, raw->fsm.rate_mbps());
        return true;
      case ProbingFsm::Action::kConverged: {
        trace_protocol(*raw->sched, obs::EventKind::kInstant, "probe.converged",
                       raw->nonce, raw->fsm.fallback_estimate());
        // Split the final round at the start of the trailing convergence
        // window: the FSM declared convergence because the last
        // `convergence_window` samples agreed, so that window is its own
        // stage (the part of the test an SLO on time-to-converge bounds).
        if (auto* spans = raw->sched->spans();
            spans != nullptr && raw->span_test != obs::span::kNoSpan) {
          const core::SimTime now = raw->sched->now();
          const core::SimDuration window =
              static_cast<core::SimDuration>(raw->config.convergence_window) *
              raw->config.sample_interval;
          core::SimTime conv_start = now > window ? now - window : 0;
          const auto& recs = spans->spans();
          if (raw->span_round != obs::span::kNoSpan &&
              raw->span_round <= recs.size()) {
            conv_start = std::max(conv_start, recs[raw->span_round - 1].start);
          }
          spans->end(raw->span_round, conv_start);
          raw->span_round = obs::span::kNoSpan;
          const obs::span::SpanId conv =
              spans->begin(conv_start, obs::Category::kProtocol,
                           "swiftest.convergence", raw->span_test);
          spans->attr_f64(conv, "estimate_mbps", raw->fsm.fallback_estimate());
          spans->attr_u64(conv, "window", raw->config.convergence_window);
          spans->end(conv, now);
        }
        // Tear down at the next 100 ms client tick after convergence (the
        // cadence the app's event loop ran at), capped by the hard stop.
        const core::SimDuration tick = core::milliseconds(100);
        const core::SimDuration since = raw->sched->now() - raw->start_time;
        const core::SimDuration rounded = ((since + tick - 1) / tick) * tick;
        core::SimTime when = raw->start_time + rounded;
        when = std::min(when, raw->hard_stop);
        if (auto self = raw->self.lock()) {
          raw->finalize_event =
              raw->sched->schedule_at(when, [self] { finalize(self); });
        }
        return false;
      }
      case ProbingFsm::Action::kContinue:
        return true;
    }
    return true;
  });
}

void WireClient::on_hard_stop(const std::shared_ptr<RunState>& st) {
  if (st->finalized) return;
  // Re-queue at the same timestamp so the sampler's final sample (already in
  // the queue with an earlier sequence number) runs first, as it did when the
  // synchronous loop ran run_until(hard_stop) before tearing down.
  st->finalize_event =
      st->sched->schedule_at(st->sched->now(), [st] { finalize(st); });
}

void WireClient::finalize(const std::shared_ptr<RunState>& st) {
  if (st->finalized) return;
  st->finalized = true;
  st->hard_stop_tick.cancel();
  st->sampler.stop();
  trace_protocol(*st->sched, obs::EventKind::kInstant, "probe.finalize",
                 st->nonce, st->fsm.fallback_estimate());

  // Close whatever stage was still running (a hard stop lands mid-round, or
  // even mid-handshake) and open the finalization stage: TestComplete
  // fan-out plus the in-flight drain, ended when the result is declared.
  if (auto* spans = st->sched->spans();
      spans != nullptr && st->span_test != obs::span::kNoSpan) {
    const core::SimTime now = st->sched->now();
    spans->end(st->span_round, now);
    spans->end(st->span_handshake, now);
    st->span_round = obs::span::kNoSpan;
    st->span_handshake = obs::span::kNoSpan;
    st->span_finalize = spans->begin(now, obs::Category::kProtocol,
                                     "swiftest.finalize", st->span_test);
    spans->attr_f64(st->span_finalize, "estimate_mbps",
                    st->fsm.fallback_estimate());
  }

  // Tear the sessions down; servers stop within the control one-way delay.
  for (std::size_t i = 0; i < st->servers.size(); ++i) {
    TestComplete complete_msg;
    complete_msg.nonce = st->nonce;
    complete_msg.result_kbps =
        static_cast<std::uint32_t>(st->fsm.fallback_estimate() * 1000.0);
    complete_msg.sample_count =
        static_cast<std::uint32_t>(st->sampler.samples().size());
    send_control(*st, i, serialize(complete_msg));
  }

  // 200 ms in-flight drain before the result is declared final.
  st->completion_time = st->sched->now() + core::milliseconds(200);
  st->completion_known = true;
  st->completion_event =
      st->sched->schedule_at(st->completion_time, [st] { complete(st); });
}

void WireClient::complete(const std::shared_ptr<RunState>& st) {
  bts::BtsResult& r = st->result;
  const core::SimTime now = st->sched->now();
  r.probe_duration = now > st->hard_stop
                         ? st->config.max_duration
                         : now - st->start_time - core::milliseconds(200);
  if (r.probe_duration < 0) r.probe_duration = 0;
  r.samples_mbps = st->sampler.samples();
  r.connections_used = st->servers.size();
  r.data_used = core::Bytes(st->wire_bytes);
  r.bandwidth_mbps = st->fsm.fallback_estimate();

  if (auto* hub = st->sched->obs()) {
    hub->metrics.counter("probe.tests_completed").inc();
    hub->metrics
        .histogram("probe.test_seconds", {1.0, 2.0, 5.0, 10.0, 15.0, 30.0})
        .observe(core::to_seconds(r.probe_duration));
  }
  trace_protocol(*st->sched, obs::EventKind::kInstant, "probe.complete",
                 st->nonce, r.bandwidth_mbps);

  if (auto* spans = st->sched->spans()) {
    spans->end(st->span_finalize, now);
    spans->attr_f64(st->span_test, "estimate_mbps", r.bandwidth_mbps);
    spans->attr_u64(st->span_test, "servers", st->servers.size());
    spans->attr_u64(st->span_test, "wire_bytes",
                    static_cast<std::uint64_t>(st->wire_bytes));
    spans->end(st->span_test, now);
  }

  *st->alive = false;  // late packets must not touch the finished state
  for (const auto& server : st->owned_servers) st->server_stats += server->stats();
  st->owned_servers.clear();
  st->completed = true;
  if (st->owner != nullptr) st->owner->server_stats_ = st->server_stats;
  if (st->on_complete) {
    // The callback may restart or destroy the owning WireClient; move it out
    // so RunState teardown cannot free it mid-call.
    CompletionFn fn = std::move(st->on_complete);
    fn(r);
  }
}

void WireClient::send_control(RunState& st, std::size_t index,
                              std::vector<std::uint8_t> bytes) {
  netsim::Path& path =
      st.client->server_path((st.base_server + index) % st.client->server_count());
  // Captures stay within SmallFn's inline buffer: the sink is read through
  // the run state at delivery, never copied into the closure.
  path.send_upstream(
      make_control_packet(st.sched->payload_arena(), st.nonce, bytes),
      [raw = &st, server = st.servers[index], path_ptr = &path,
       alive = st.alive](const netsim::Packet& pkt) {
        if (*alive && pkt.payload) {
          server->on_control_message(pkt.payload.bytes(), *path_ptr, raw->client_sink);
        }
      });
}

void WireClient::apply_rate(RunState& st, double total_mbps) {
  const double uplink = st.server_cfg.uplink.megabits_per_second();
  const std::size_t limit =
      st.fleet != nullptr
          ? std::min(st.client->server_count(), st.fleet->size())
          : st.client->server_count();
  const std::size_t needed =
      std::min(SwiftestClient::servers_needed(total_mbps, uplink), limit);
  while (st.servers.size() < needed) {
    const std::size_t index = st.servers.size();
    if (st.fleet != nullptr) {
      const std::size_t path_index =
          (st.base_server + index) % st.client->server_count();
      st.servers.push_back(&st.fleet->server(path_index % st.fleet->size()));
    } else {
      // Private servers are built as they are enlisted: each one's idle-GC
      // timer starts at construction.
      st.owned_servers.push_back(
          std::make_unique<SwiftestServer>(*st.sched, st.server_cfg));
      st.servers.push_back(st.owned_servers.back().get());
    }
    // New servers join via a ProbeRequest at the (not yet known) share; the
    // follow-up RateUpdate below sets the precise split.
    ProbeRequest request;
    request.tech = st.config.tech;
    request.initial_rate_kbps = 0;
    request.nonce = st.nonce;
    send_control(st, index, serialize(request));
  }
  const double per_server = total_mbps / static_cast<double>(st.servers.size());
  ++st.update_seq;
  // One event per fan-out round: id carries the RateUpdate seq so a trace
  // shows the commanded per-server split converging over the ladder.
  trace_protocol(*st.sched, obs::EventKind::kCounter, "probe.rate_update",
                 st.update_seq, per_server);
  for (std::size_t i = 0; i < st.servers.size(); ++i) {
    RateUpdate update;
    update.nonce = st.nonce;
    update.rate_kbps = static_cast<std::uint32_t>(per_server * 1000.0);
    update.update_seq = st.update_seq;
    send_control(st, i, serialize(update));
  }
}

bts::BtsResult WireClient::run(netsim::ClientContext& client) {
  bts::BtsResult out;
  bool done = false;
  start(client, [&out, &done](const bts::BtsResult& r) {
    out = r;
    done = true;
  });
  netsim::Scheduler& sched = client.scheduler();
  while (!done) {
    const auto st = state_;
    const core::SimTime target = (st && st->completion_known)
                                     ? st->completion_time
                                     : sched.now() + core::milliseconds(100);
    sched.run_until(target);
  }
  return out;
}

}  // namespace swiftest::swift
