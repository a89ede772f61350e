// Self-test of the benchmark's statistics helpers (stats.hpp). Exits
// non-zero on the first mismatch; perfbench/run.py runs it after each build.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::Span;

  expect_near(perfbench::median({3.0}), 3.0, "median of one");
  expect_near(perfbench::median({5.0, 1.0, 3.0}), 3.0, "median odd");
  expect_near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");

  // Reference values from Python: statistics.quantiles(values, n=4).
  const auto q10 = perfbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q10[0], 2.75, "q1 of 1..10");
  expect_near(q10[1], 5.5, "q2 of 1..10");
  expect_near(q10[2], 8.25, "q3 of 1..10");
  const auto q5 = perfbench::quartiles({10, 40, 20, 50, 30});
  expect_near(q5[0], 15.0, "q1 of five");
  expect_near(q5[1], 30.0, "q2 of five");
  expect_near(q5[2], 45.0, "q3 of five");
  const auto q2 = perfbench::quartiles({1.0, 2.0});
  expect_near(q2[0], 0.75, "q1 of two");
  expect_near(q2[2], 2.25, "q3 of two");
  expect_near(perfbench::relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5,
              "spread of 1..10");

  // Root [0, 100) with children [10, 40) and [30, 60) that overlap each
  // other, and [90, 120) that runs past the root's end: covered is
  // [10, 60) + [90, 100) = 60, so self time is 40.
  const std::vector<Span> overlapping = {
      {"root", 0, 100, -1}, {"a", 10, 40, 0}, {"b", 30, 60, 0},
      {"c", 90, 120, 0},    {"a.child", 12, 20, 1},
  };
  expect_near(static_cast<double>(perfbench::self_time_ns(overlapping, 0)), 40.0,
              "self time with overlapping children");
  expect_near(static_cast<double>(perfbench::self_time_ns(overlapping, 1)), 22.0,
              "self time excludes only direct children");
  expect_near(static_cast<double>(perfbench::self_time_ns(overlapping, 4)), 8.0,
              "leaf self time is its duration");
  // A child nested wholly inside another child covers nothing extra.
  const std::vector<Span> nested = {{"root", 0, 50, -1}, {"a", 0, 30, 0}, {"b", 5, 10, 0}};
  expect_near(static_cast<double>(perfbench::self_time_ns(nested, 0)), 20.0,
              "self time with a child inside a sibling");

  perfbench::SpanRecorder recorder;
  {
    perfbench::SpanScope outer(&recorder, "outer");
    perfbench::SpanScope inner(&recorder, "inner");
  }
  const auto& spans = recorder.spans();
  if (spans.size() != 2 || spans[0].parent != -1 || spans[1].parent != 0 ||
      spans[1].end_ns > spans[0].end_ns) {
    std::fprintf(stderr, "FAIL recorder nesting\n");
    ++failures;
  }

  if (failures == 0) std::printf("perfbench_selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
