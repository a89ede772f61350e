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
  netsim::Scheduler& sched = client_.scheduler();
  if (auto* spans = sched.spans()) {
    test_ = spans->begin(sched.now(), obs::Category::kProtocol, test_name);
  }
}

netsim::ServerChoice TestSpanScope::run_selection(BtsResult& result,
                                                  std::size_t candidates,
                                                  std::size_t concurrency) {
  netsim::Scheduler& sched = client_.scheduler();
  obs::span::SpanStore* spans = sched.spans();
  const obs::span::SpanId span_select =
      spans != nullptr ? spans->begin(sched.now(), obs::Category::kProtocol,
                                      "bts.select_server", test_)
                       : obs::span::kNoSpan;
  const netsim::ServerChoice sel = client_.select_server(candidates, concurrency);
  result.ping_duration = sel.elapsed;
  sched.run_until(sched.now() + sel.elapsed);
  if (spans != nullptr) spans->end(span_select, sched.now());
  return sel;
}

void TestSpanScope::begin_probe() {
  netsim::Scheduler& sched = client_.scheduler();
  if (auto* spans = sched.spans()) {
    probe_ = spans->begin(sched.now(), obs::Category::kProtocol, "bts.probe", test_);
  }
}

void TestSpanScope::end_probe() {
  netsim::Scheduler& sched = client_.scheduler();
  if (auto* spans = sched.spans()) spans->end(probe_, sched.now());
  probe_ = obs::span::kNoSpan;
}

void TestSpanScope::finish(const BtsResult& result, std::size_t connections) {
  netsim::Scheduler& sched = client_.scheduler();
  if (auto* spans = sched.spans()) {
    spans->attr_f64(test_, "estimate_mbps", result.bandwidth_mbps);
    spans->attr_u64(test_, "connections", connections);
    spans->end(test_, sched.now());
  }
}

}  // namespace swiftest::bts
