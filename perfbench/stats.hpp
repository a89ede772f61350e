// The benchmark's own statistics and span helpers: median and quartiles of
// repeated timings, and per-span self time from an in-memory span tree.
// Header-only so the driver and its self-test share one implementation.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws on an empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// First, second and third quartile, computed exactly as Python's
/// statistics.quantiles(values, n=4) does with its default 'exclusive'
/// method, so the spread this benchmark reports about itself is the spread
/// the acceptance check computes. A single value is its own quartiles.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no values");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  constexpr long n = 4;
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return out;
}

/// Interquartile distance as a share of the median: the run-to-run spread.
inline double relative_spread(const std::vector<double>& values) {
  const auto q = quartiles(values);
  return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / q[1];
}

/// One timed interval around a call into the program. `parent` indexes the
/// enclosing span in the same recorder (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// Self time of span `index`: its duration minus the part of its interval
/// covered by at least one child. Children may overlap one another (spans
/// from parallel work), so the covered part is the length of the union of
/// the children's intervals, clipped to the parent.
inline std::int64_t self_time_ns(const std::vector<Span>& spans, std::size_t index) {
  const Span& parent = spans[index];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const std::int64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) union_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) union_ns += run_hi - run_lo;
  return (parent.end_ns - parent.start_ns) - union_ns;
}

/// Spans kept in memory for the whole run and written out at exit. Nesting
/// follows the open stack, so a span's parent is whichever span was open
/// when it began. Single-threaded: spans wrap calls made from the
/// benchmark's own thread.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::size_t begin(std::string name) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void end(std::size_t index) {
    spans_[index].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Summed self time, in ms, of every span named `name` recorded at or
  /// after index `first` (a round's spans start where the round began).
  [[nodiscard]] double self_ms(const std::string& name, std::size_t first = 0) const {
    std::int64_t total = 0;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      if (spans_[i].name == name) total += self_time_ns(spans_, i);
    }
    return static_cast<double>(total) / 1e6;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null recorder makes it a no-op, so untraced runs pay only a
/// branch.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->begin(name) : 0) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench
