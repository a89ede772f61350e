// Common interface for bandwidth testing services (BTSes).
//
// Every tester (the flooding BTS-APP baseline, FAST, FastBTS, and Swiftest)
// runs against a netsim::ClientContext — one client's access link plus its
// paths into the shared server fleet — and produces the same result
// structure, which is what the §5.3 comparison figures consume. Every tester
// picks its server with ClientContext::select_server, whose
// netsim::ServerChoice is the one server-selection result. The single-client
// netsim::Scenario converts implicitly to its ClientContext, so
// Scenario-based call sites keep working unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "core/units.hpp"
#include "netsim/scenario.hpp"
#include "netsim/testbed.hpp"

namespace swiftest::bts {

struct BtsResult {
  /// Final bandwidth estimate.
  double bandwidth_mbps = 0.0;
  /// Wall-clock duration of the probing stage (excludes server selection).
  core::SimDuration probe_duration = 0;
  /// Duration of the PING/server-selection stage.
  core::SimDuration ping_duration = 0;
  /// Radio data consumed by the test (all wire bytes that reached the client).
  core::Bytes data_used{0};
  /// Peak number of simultaneously open connections/flows.
  std::size_t connections_used = 0;
  /// The raw 50 ms throughput samples collected while probing.
  std::vector<double> samples_mbps;

  [[nodiscard]] core::SimDuration total_duration() const noexcept {
    return probe_duration + ping_duration;
  }
};

class BandwidthTester {
 public:
  virtual ~BandwidthTester() = default;

  /// Runs one bandwidth test for the given client. The testbed's scheduler
  /// is advanced; a tester may be run on a fresh client only.
  [[nodiscard]] virtual BtsResult run(netsim::ClientContext& client) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Relative accuracy of a result against the ground truth (or a reference
/// result), following §5.3: |a - b| / max(a, b). 1 = identical, 0 = useless.
[[nodiscard]] double deviation(double result_mbps, double reference_mbps);

/// Shared observability wiring for one tester run: the wrapper span a BTS
/// opens around its whole test ("<name>.test"), the "bts.select_server" and
/// "bts.probe" stage spans under it, and the closing estimate/connections
/// attributes. One implementation instead of a copy in every tester, so all
/// testers emit structurally identical span trees.
///
/// Usage mirrors a test's phases:
///   TestSpanScope scope(client, "fast.test");
///   const netsim::ServerChoice sel = scope.run_selection(result, candidates);
///   ... open connections ...
///   scope.begin_probe();
///   ... drive the probing stage ...
///   scope.end_probe();
///   ... fill in result ...
///   scope.finish(result, connections.size());
class TestSpanScope {
 public:
  /// Opens the wrapper span; every stage span below is its child.
  TestSpanScope(netsim::ClientContext& client, const char* test_name);

  /// Runs the PING/server-selection stage (ClientContext::select_server)
  /// under a "bts.select_server" span: picks the server, stores the
  /// selection time in `result.ping_duration`, and advances the scheduler
  /// past it.
  netsim::ServerChoice run_selection(BtsResult& result, std::size_t candidates,
                                     std::size_t concurrency = 1);

  /// Brackets the probing stage with a "bts.probe" span.
  void begin_probe();
  void end_probe();

  /// Attaches the closing attributes (estimate_mbps, connections) and ends
  /// the wrapper span. Call exactly once, last.
  void finish(const BtsResult& result, std::size_t connections);

 private:
  netsim::ClientContext& client_;
  obs::span::SpanId test_ = obs::span::kNoSpan;
  obs::span::SpanId probe_ = obs::span::kNoSpan;
};

}  // namespace swiftest::bts
