#include "obs/metrics.hpp"

#include <algorithm>

namespace swiftest::obs {

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()), counts_(bounds.size() + 1, 0) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

void Histogram::add_counts(std::span<const std::uint64_t> counts,
                           std::uint64_t count, double sum) {
  const std::size_t n = std::min(counts.size(), counts_.size());
  for (std::size_t i = 0; i < n; ++i) counts_[i] += counts[i];
  count_ += count;
  sum_ += sum;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const double> bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

void MetricsRegistry::merge_from(const MetricsSnapshot& src) {
  for (const auto& [name, value] : src.counters) counter(name).inc(value);
  for (const auto& [name, value] : src.gauges) gauge(name).add(value);
  for (const auto& [name, value] : src.histograms) {
    Histogram& h = histogram(name, value.bounds);
    if (h.counts().size() == value.counts.size()) {
      h.add_counts(value.counts, value.count, value.sum);
    } else {
      // Mismatched bucket layouts cannot be combined bucket by bucket; keep
      // the totals so count/sum stay conserved.
      h.add_counts({}, value.count, value.sum);
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue v;
    v.bounds = h->bounds();
    v.counts = h->counts();
    v.count = h->count();
    v.sum = h->sum();
    snap.histograms[name] = std::move(v);
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::take() {
  MetricsSnapshot snap = snapshot();
  for (auto& [name, c] : counters_) *c = Counter();
  for (auto& [name, g] : gauges_) *g = Gauge();
  for (auto& [name, h] : histograms_) *h = Histogram(h->bounds());
  return snap;
}

}  // namespace swiftest::obs
