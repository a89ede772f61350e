#include "bts/tester.hpp"

#include <algorithm>
#include <cmath>

namespace swiftest::bts {

double deviation(double result_mbps, double reference_mbps) {
  const double hi = std::max(result_mbps, reference_mbps);
  if (hi <= 0.0) return 0.0;
  return std::abs(result_mbps - reference_mbps) / hi;
}

TestSpanScope::TestSpanScope(netsim::ClientContext& client, const char* test_name)
    : client_(client) {
  auto& sctx = client_.spans();
  test_ = sctx.begin(obs::Category::kProtocol, test_name);
  sctx.push(test_);
}

netsim::ServerChoice TestSpanScope::run_selection(BtsResult& result,
                                                  std::size_t candidates,
                                                  std::size_t concurrency) {
  auto& sctx = client_.spans();
  const obs::span::SpanId span_select =
      sctx.begin(obs::Category::kProtocol, "bts.select_server");
  const netsim::ServerChoice sel = client_.select_server(candidates, concurrency);
  result.ping_duration = sel.elapsed;
  auto& sched = client_.scheduler();
  sched.run_until(sched.now() + sel.elapsed);
  sctx.end(span_select);
  return sel;
}

void TestSpanScope::begin_probe() {
  probe_ = client_.spans().begin(obs::Category::kProtocol, "bts.probe");
}

void TestSpanScope::end_probe() {
  client_.spans().end(probe_);
  probe_ = obs::span::kNoSpan;
}

void TestSpanScope::finish(const BtsResult& result, std::size_t connections) {
  auto& sctx = client_.spans();
  if (auto* spans = sctx.store()) {
    spans->attr_f64(test_, "estimate_mbps", result.bandwidth_mbps);
    spans->attr_u64(test_, "connections", connections);
  }
  sctx.pop(test_);
  sctx.end(test_);
}

}  // namespace swiftest::bts
