#include "swiftest/server.hpp"

#include <algorithm>

#include "netsim/packet.hpp"
#include "obs/log.hpp"

namespace swiftest::swift {

SwiftestServer::SwiftestServer(netsim::Scheduler& sched, ServerConfig config)
    : sched_(sched), config_(config) {
  gc_timer_ = sched_.schedule_in(config_.idle_timeout, [this] { reap_idle(); });
}

SwiftestServer::~SwiftestServer() {
  gc_timer_.cancel();
  for (auto& [nonce, session] : sessions_) session.timer.cancel();
}

core::Bandwidth SwiftestServer::clamp_rate(double kbps) const {
  return std::min(core::Bandwidth::kbps(kbps), config_.uplink);
}

void SwiftestServer::bind_obs() {
  obs_.bound = true;
  auto& m = sched_.obs()->metrics;
  obs_.accepted = &m.counter("server.requests_accepted");
  obs_.rejected = &m.counter("server.requests_rejected");
  obs_.rate_updates = &m.counter("server.rate_updates_applied");
  obs_.completions = &m.counter("server.completions");
  obs_.reaped = &m.counter("server.sessions_reaped");
  obs_.active_sessions = &m.gauge("server.active_sessions");
}

// Keeps the shared active-session gauge in step after any session create,
// complete, or reap. With several servers on one scheduler (a fleet) the
// gauge aggregates poorly as a "last writer wins" value, so it tracks this
// server's count only on single-server setups and the fleet relies on the
// per-event trace instead; the counters always aggregate correctly.
void SwiftestServer::note_session_count() {
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.active_sessions->set(static_cast<double>(sessions_.size()));
  }
}

void SwiftestServer::on_control_message(std::span<const std::uint8_t> bytes,
                                        netsim::Path& reply_path,
                                        const netsim::Path::DeliveryFn& sink) {
  const auto type = peek_type(bytes);
  if (!type) {
    ++stats_.garbled_messages;
    return;
  }
  switch (*type) {
    case MessageType::kProbeRequest: {
      const auto request = parse_probe_request(bytes);
      if (!request) {
        ++stats_.garbled_messages;
        return;
      }
      handle_request(*request, reply_path, sink);
      return;
    }
    case MessageType::kRateUpdate: {
      const auto update = parse_rate_update(bytes);
      if (!update) {
        ++stats_.garbled_messages;
        return;
      }
      handle_rate_update(update->nonce, *update);
      return;
    }
    case MessageType::kTestComplete: {
      const auto complete = parse_test_complete(bytes);
      if (!complete) {
        ++stats_.garbled_messages;
        return;
      }
      handle_complete(*complete);
      return;
    }
    case MessageType::kProbeData:
      // Downstream-only message arriving upstream: protocol misuse.
      ++stats_.garbled_messages;
      return;
  }
}

void SwiftestServer::handle_request(const ProbeRequest& request,
                                    netsim::Path& reply_path,
                                    const netsim::Path::DeliveryFn& sink) {
  if (sessions_.size() >= config_.max_sessions &&
      sessions_.find(request.nonce) == sessions_.end()) {
    ++stats_.requests_rejected;
    if (sched_.obs() != nullptr) {
      if (!obs_.bound) bind_obs();
      obs_.rejected->inc();
    }
    obs::logf(obs::LogLevel::kDebug,
              "server: rejected probe request (at capacity, %zu sessions)",
              sessions_.size());
    return;
  }
  auto& session = sessions_[request.nonce];  // creates or restarts
  session.rate = clamp_rate(request.initial_rate_kbps);
  session.last_update_seq = 0;
  session.last_activity = sched_.now();
  session.next_send = std::max(session.next_send, sched_.now());
  session.path = &reply_path;
  session.sink = sink;
  ++stats_.requests_accepted;
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.accepted->inc();
    note_session_count();
    if (auto* tr = sched_.tracer(obs::Category::kProtocol)) {
      tr->record(sched_.now(), obs::Category::kProtocol, obs::EventKind::kInstant,
                 "server.session_start", request.nonce,
                 session.rate.megabits_per_second());
    }
    // Session span, joined to the client's test tree via the nonce anchor
    // (or its own root if this server never sees the client's trace).
    // Marked aux: it runs concurrently with the client's probing rounds and
    // must annotate the tree, not claim its critical path.
    if (auto* spans = sched_.spans();
        spans != nullptr && session.span == obs::span::kNoSpan) {
      session.span =
          spans->begin(sched_.now(), obs::Category::kProtocol, "server.session",
                       spans->anchor(request.nonce), request.nonce);
      spans->attr_u64(session.span, "aux", 1);
      spans->attr_f64(session.span, "rate_mbps",
                      session.rate.megabits_per_second());
    }
  }
  pump(request.nonce);
}

void SwiftestServer::handle_rate_update(std::uint64_t nonce, const RateUpdate& update) {
  const auto it = sessions_.find(nonce);
  if (it == sessions_.end()) return;  // late command for a reaped session
  Session& session = it->second;
  if (update.update_seq <= session.last_update_seq) {
    ++stats_.rate_updates_stale;
    return;
  }
  session.last_update_seq = update.update_seq;
  session.rate = clamp_rate(update.rate_kbps);
  session.last_activity = sched_.now();
  ++stats_.rate_updates_applied;
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.rate_updates->inc();
    if (auto* tr = sched_.tracer(obs::Category::kProtocol)) {
      // Commanded (post-clamp) per-session pacing rate; id keys the session.
      tr->record(sched_.now(), obs::Category::kProtocol, obs::EventKind::kCounter,
                 "server.session_rate_mbps", nonce,
                 session.rate.megabits_per_second());
    }
  }
  pump(nonce);
}

void SwiftestServer::handle_complete(const TestComplete& complete) {
  const auto it = sessions_.find(complete.nonce);
  if (it == sessions_.end()) return;
  it->second.timer.cancel();
  if (auto* spans = sched_.spans()) spans->end(it->second.span, sched_.now());
  sessions_.erase(it);
  ++stats_.completions;
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.completions->inc();
    note_session_count();
    if (auto* tr = sched_.tracer(obs::Category::kProtocol)) {
      tr->record(sched_.now(), obs::Category::kProtocol, obs::EventKind::kInstant,
                 "server.session_complete", complete.nonce,
                 static_cast<double>(complete.result_kbps) / 1000.0);
    }
  }
}

void SwiftestServer::pump(std::uint64_t nonce) {
  const auto it = sessions_.find(nonce);
  if (it == sessions_.end()) return;
  pump_session(nonce, it->second);
}

void SwiftestServer::pump_session(std::uint64_t nonce, Session& session) {
  if (session.rate.is_zero()) return;
  if (session.timer_armed) return;
  for (;;) {
    const core::SimTime now = sched_.now();
    if (session.next_send > now) {
      core::SimTime wake = session.next_send;
      if (config_.pacing_quantum > 0) {
        // Coalesce: round the wakeup up to the quantum boundary; the emit
        // loop below then drains every probe due by the time we fire.
        const core::SimDuration q = config_.pacing_quantum;
        wake = ((wake + q - 1) / q) * q;
      }
      session.timer_armed = true;
      // The map node is stable and the timer is cancelled before the node
      // is ever erased (complete, reap, destructor), so the wakeup can
      // capture the Session directly instead of re-finding it by nonce.
      Session* stable = &session;
      session.timer = sched_.schedule_at(wake, [this, nonce, stable] {
        stable->timer_armed = false;
        pump_session(nonce, *stable);
      });
      return;
    }

    // Emit one probe datagram and loop for the next at the paced gap.
    ProbeData header;
    header.seq = session.next_probe_seq++;
    header.send_time_us = static_cast<std::uint64_t>(now / 1000);
    netsim::Packet pkt;
    pkt.kind = netsim::PacketKind::kUdpData;
    pkt.flow_id = nonce;
    pkt.seq = header.seq;
    pkt.size_bytes = config_.probe_payload_bytes + netsim::kUdpHeaderBytes;
    pkt.sent_at = now;
    std::span<std::uint8_t> payload_out;
    pkt.payload = sched_.payload_arena().allocate(kProbeDataWireBytes, payload_out);
    serialize_into(header, payload_out);
    stats_.probe_bytes_sent += pkt.size_bytes;
    session.path->send_downstream(std::move(pkt), session.sink);

    const core::SimDuration gap = session.rate.transmit_time(
        core::Bytes(config_.probe_payload_bytes + netsim::kUdpHeaderBytes));
    // Rebase after long idle (no unbounded catch-up burst), but keep the
    // backlog within one coalescing window so a quantum wakeup emits every
    // probe that was due — with quantum 0 this is the exact legacy pacing.
    session.next_send =
        std::max(session.next_send, now - config_.pacing_quantum) + gap;
  }
}

void SwiftestServer::reap_idle() {
  const core::SimTime cutoff = sched_.now() - config_.idle_timeout;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.last_activity < cutoff) {
      it->second.timer.cancel();
      const std::uint64_t nonce = it->first;
      if (auto* spans = sched_.spans()) {
        spans->attr_u64(it->second.span, "reaped", 1);
        spans->end(it->second.span, sched_.now());
      }
      it = sessions_.erase(it);
      ++stats_.sessions_reaped;
      if (sched_.obs() != nullptr) {
        if (!obs_.bound) bind_obs();
        obs_.reaped->inc();
        note_session_count();
        if (auto* tr = sched_.tracer(obs::Category::kProtocol)) {
          tr->record(sched_.now(), obs::Category::kProtocol,
                     obs::EventKind::kInstant, "server.session_reaped", nonce,
                     static_cast<double>(sessions_.size()));
        }
      }
    } else {
      ++it;
    }
  }
  gc_timer_ = sched_.schedule_in(config_.idle_timeout, [this] { reap_idle(); });
}

}  // namespace swiftest::swift
