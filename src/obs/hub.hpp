// The observability bundle a simulation opts into.
//
// A Hub owns one Tracer, one MetricsRegistry, and one SpanStore. Attaching a
// Hub to a netsim::Scheduler (Scheduler::set_obs) switches on
// instrumentation for every component driven by that scheduler; with no Hub
// attached (the default), every instrumentation site reduces to a branch on
// a null pointer — no allocation, no stores, no formatting. Components reach
// the tracer and span store only through the scheduler (tracer(category),
// spans()), whose detail switch decides per test whether they are kept;
// metrics go through obs() and always count.
//
// Attach the Hub before running the simulation. Handle-based metric
// bindings are established lazily at each component's first instrumented
// action, so components constructed before set_obs() still report. The span
// store mirrors begin/end markers into the tracer and per-stage duration
// histograms into the metrics registry (span.stage_seconds/<name>).
//
// A chunked fleet run gives each chunk one Hub that its tests record into
// in turn, each attached with detail = the test's sampling decision, and
// merges the chunk hubs' stores into the caller's Hub
// (deploy/fleet_sim.cpp, DESIGN.md §12, §15).
#pragma once

#include "obs/metrics.hpp"
#include "obs/span/span.hpp"
#include "obs/trace.hpp"

namespace swiftest::obs {

struct Hub {
  Hub() { spans.set_sinks(&tracer, &metrics); }
  explicit Hub(std::size_t trace_capacity, std::size_t span_capacity =
                                               span::SpanStore::kDefaultCapacity)
      : tracer(trace_capacity), spans(span_capacity) {
    spans.set_sinks(&tracer, &metrics);
  }

  Tracer tracer;
  MetricsRegistry metrics;
  span::SpanStore spans;
};

}  // namespace swiftest::obs
