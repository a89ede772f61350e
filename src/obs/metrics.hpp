// Named metrics with cheap handle-based updates.
//
// Components look a metric up once (by name, at bind time) and keep the
// returned handle; hot-path updates are then a single load/increment with no
// string hashing. Handles stay valid for the registry's lifetime (entries
// are never removed and live behind stable pointers). snapshot() deep-copies
// every value, so an exported snapshot is isolated from later updates;
// take() also zeroes them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace swiftest::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order; one implicit overflow bucket catches everything above the last.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double v) noexcept;

  /// Adds another histogram's per-bucket counts (same bounds layout —
  /// `counts.size()` must equal `counts().size()`) plus its count/sum.
  void add_counts(std::span<const std::uint64_t> counts, std::uint64_t count,
                  double sum);

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Point-in-time copy of every registered metric, ordered by name so the
/// JSON export is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  struct HistogramValue {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, HistogramValue> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// The returned reference remains valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first registration only; later callers share the
  /// existing histogram regardless of the bounds they pass.
  Histogram& histogram(const std::string& name, std::span<const double> bounds);
  Histogram& histogram(const std::string& name, std::initializer_list<double> bounds) {
    return histogram(name, std::span<const double>(bounds.begin(), bounds.size()));
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// snapshot(), then zeroes every value. Entries stay registered, so
  /// handles already bound stay valid: a fleet chunk banks one take() per
  /// test from the registry its tests share.
  [[nodiscard]] MetricsSnapshot take();

  /// Folds a snapshot into this registry: counters and gauges add, histogram
  /// bucket counts add elementwise (a histogram absent here is created with
  /// the source's bounds). Gauges are shard-additive by convention — fleet
  /// gauges are either zero at merge time (concurrency high-water gauges end
  /// a run at 0) or meaningful as a sum. Merging into an empty registry
  /// reproduces the source snapshot exactly.
  void merge_from(const MetricsSnapshot& src);

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace swiftest::obs
