// Swiftest test server.
//
// The server-side Linux user-space module of §5.3, simulated: it accepts the
// wire protocol's control messages (protocol.hpp), runs one probing session
// per client nonce, and emits ProbeData datagrams downstream, token-bucket
// paced at the client's commanded rate and capped at the server's uplink.
// Like a deployed budget VM it serves many clients at once: each session
// replies over the path and sink its ProbeRequest arrived with. Sessions are
// garbage-collected after an idle timeout so that lost TestComplete messages
// cannot leak server bandwidth.
#pragma once

#include <cstdint>
#include <map>

#include "core/time.hpp"
#include "core/units.hpp"
#include "netsim/path.hpp"
#include "netsim/scheduler.hpp"
#include "obs/span/span.hpp"
#include "swiftest/protocol.hpp"

namespace swiftest::swift {

struct ServerConfig {
  /// Egress capacity; commanded rates are clamped to it (100 Mbps budget
  /// VMs in the §5.3 deployment).
  core::Bandwidth uplink = core::Bandwidth::mbps(100);
  /// Sessions with no control traffic for this long are reaped.
  core::SimDuration idle_timeout = core::seconds(3);
  std::int32_t probe_payload_bytes = 1400;
  std::size_t max_sessions = 64;
  /// Timer-coalescing window for the token-bucket pacer. Zero (the default)
  /// wakes exactly at each probe's paced send time — the reference timing.
  /// Positive values round wakeups up to the next quantum boundary and emit
  /// every probe due within the window in one burst, trading per-probe
  /// scheduling churn for bounded (≤ quantum) pacing jitter.
  core::SimDuration pacing_quantum = 0;
};

struct ServerStats {
  std::uint64_t requests_accepted = 0;
  std::uint64_t requests_rejected = 0;   // capacity/garbled
  std::uint64_t rate_updates_applied = 0;
  std::uint64_t rate_updates_stale = 0;  // out-of-order update_seq
  std::uint64_t completions = 0;
  std::uint64_t sessions_reaped = 0;     // idle-timeout GC
  std::int64_t probe_bytes_sent = 0;
  std::uint64_t garbled_messages = 0;

  /// Element-wise sum (fleet totals, a run's private servers).
  ServerStats& operator+=(const ServerStats& o) noexcept {
    requests_accepted += o.requests_accepted;
    requests_rejected += o.requests_rejected;
    rate_updates_applied += o.rate_updates_applied;
    rate_updates_stale += o.rate_updates_stale;
    completions += o.completions;
    sessions_reaped += o.sessions_reaped;
    probe_bytes_sent += o.probe_bytes_sent;
    garbled_messages += o.garbled_messages;
    return *this;
  }
};

class SwiftestServer {
 public:
  /// The idle-GC timer starts here, so construction time fixes when sessions
  /// are reaped.
  SwiftestServer(netsim::Scheduler& sched, ServerConfig config);
  ~SwiftestServer();

  SwiftestServer(const SwiftestServer&) = delete;
  SwiftestServer& operator=(const SwiftestServer&) = delete;

  /// The one entry point for client control messages (the payload of an
  /// upstream datagram, plus the endpoint it came from). A ProbeRequest binds
  /// (or rebinds) its session to `reply_path`/`sink`, where the session's
  /// probes go; other messages ignore both. Garbled or foreign bytes are
  /// counted and dropped.
  void on_control_message(std::span<const std::uint8_t> bytes,
                          netsim::Path& reply_path, const netsim::Path::DeliveryFn& sink);

  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t active_sessions() const noexcept { return sessions_.size(); }

 private:
  struct Session {
    core::Bandwidth rate;
    std::uint32_t last_update_seq = 0;
    std::uint32_t next_probe_seq = 0;
    core::SimTime next_send = 0;
    core::SimTime last_activity = 0;
    bool timer_armed = false;
    netsim::EventHandle timer;
    /// Reply endpoint, bound at ProbeRequest time.
    netsim::Path* path = nullptr;
    netsim::Path::DeliveryFn sink;
    /// Session lifetime span, parented at the trace anchor the client
    /// registered under this nonce (kNoSpan with no Hub attached).
    obs::span::SpanId span = obs::span::kNoSpan;
  };

  struct ObsHandles {
    bool bound = false;
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* rate_updates = nullptr;
    obs::Counter* completions = nullptr;
    obs::Counter* reaped = nullptr;
    obs::Gauge* active_sessions = nullptr;
  };

  void bind_obs();
  void note_session_count();
  void handle_request(const ProbeRequest& request, netsim::Path& reply_path,
                      const netsim::Path::DeliveryFn& sink);
  void handle_rate_update(std::uint64_t nonce_hint, const RateUpdate& update);
  void handle_complete(const TestComplete& complete);
  void pump(std::uint64_t nonce);
  void pump_session(std::uint64_t nonce, Session& session);
  void reap_idle();
  [[nodiscard]] core::Bandwidth clamp_rate(double kbps) const;

  netsim::Scheduler& sched_;
  ServerConfig config_;
  std::map<std::uint64_t, Session> sessions_;  // keyed by client nonce
  ServerStats stats_;
  ObsHandles obs_;
  netsim::EventHandle gc_timer_;
};

}  // namespace swiftest::swift
