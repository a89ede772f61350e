// Deterministic whole-test sampling for fleet-scale observability.
//
// At fleet scale (the paper's platform ran 23.6M tests) retaining every
// test's trace events and spans is neither affordable nor useful; what the
// artifacts must stay is *representative* and *reproducible*. A test is
// retained iff splitmix64(key ^ salt) % N == 0, keyed on a stable test
// identity (the global workload draw index), never on wall clock, chunk or
// thread id — so the sampled set is a pure function of (seed, workload) and
// a `--obs-sample 1/N` fleet-day emits byte-identical sampled artifacts
// regardless of `--chunk` / `--jobs`.
//
// SamplingPolicy is the run's request (base 1/N, salt, memory budget);
// SampleSchedule is the only rule that decides: planned once over the whole
// workload, it applies the budget by doubling N at fixed checkpoints of a
// modelled (never measured) footprint, so the degradation points are the
// same on every host and for every partition.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace swiftest::obs {

class SamplingPolicy {
 public:
  /// Keep-everything policy (denominator 1).
  SamplingPolicy() = default;

  /// Parses "1/N" or plain "N" into a keep-1-in-N policy ("1/1" and "1"
  /// keep everything). Returns nullopt for malformed specs or N == 0.
  [[nodiscard]] static std::optional<SamplingPolicy> parse(std::string_view spec);

  void set_denominator(std::uint64_t denominator) noexcept {
    denominator_ = denominator == 0 ? 1 : denominator;
  }
  [[nodiscard]] std::uint64_t denominator() const noexcept { return denominator_; }

  /// Salts the hash (set it to the run seed) so two runs with different
  /// seeds sample different test subsets.
  void set_salt(std::uint64_t salt) noexcept { salt_ = salt; }
  [[nodiscard]] std::uint64_t salt() const noexcept { return salt_; }

  /// True when the policy discards anything (denominator > 1).
  [[nodiscard]] bool enabled() const noexcept { return denominator_ > 1; }

  /// Degradation budget in bytes; 0 disables degradation.
  void set_budget_bytes(std::uint64_t bytes) noexcept { budget_bytes_ = bytes; }
  [[nodiscard]] std::uint64_t budget_bytes() const noexcept { return budget_bytes_; }

  /// "1/N" — the spec string recorded in artifact meta.
  [[nodiscard]] std::string describe() const;

  static constexpr std::uint64_t kMaxDenominator = 1ull << 32;

 private:
  std::uint64_t denominator_ = 1;
  std::uint64_t salt_ = 0;
  std::uint64_t budget_bytes_ = 0;
};

/// The precomputed sampling and budget-degradation schedule for one run.
///
/// plan() walks the workload once, in global test order, modelling the
/// observability footprint the run will accumulate and doubling the
/// denominator at deterministic checkpoints: the resulting per-test
/// keep/drop decisions are a pure function of (test count, base policy,
/// budget, per-test cost model), so every chunk asks the schedule and none
/// decides on its own.
class SampleSchedule {
 public:
  /// A denominator step: tests with index >= from_test sample at 1/denominator
  /// (until the next step).
  struct Step {
    std::uint64_t from_test = 0;
    std::uint64_t denominator = 1;
  };

  /// Cost model for plan(): `base_bytes` is footprint that exists regardless
  /// of sampling (e.g. preallocated trace rings), `sampled_test_bytes` is
  /// paid only by retained tests, `per_test_bytes` by every test (health).
  struct CostModel {
    std::uint64_t base_bytes = 0;
    std::uint64_t sampled_test_bytes = 0;
    std::uint64_t per_test_bytes = 0;
  };

  /// Builds the schedule for `test_count` tests under `policy` (denominator,
  /// salt and budget are read from it). The footprint is checked every
  /// kCheckpointInterval tests; each over-budget checkpoint doubles the
  /// denominator once, up to SamplingPolicy::kMaxDenominator.
  [[nodiscard]] static SampleSchedule plan(std::uint64_t test_count,
                                           const SamplingPolicy& policy,
                                           const CostModel& model);

  /// Whether the test at global index `test_id` retains observability.
  [[nodiscard]] bool sampled(std::uint64_t test_id) const noexcept;

  /// Denominator in force at `test_id`.
  [[nodiscard]] std::uint64_t denominator_at(std::uint64_t test_id) const noexcept;

  /// Degradations whose trigger checkpoint lies in [begin_test, end_test) —
  /// per-chunk telemetry attribution.
  [[nodiscard]] std::uint64_t degradations_in(std::uint64_t begin_test,
                                              std::uint64_t end_test) const noexcept;

  static constexpr std::uint64_t kCheckpointInterval = 4096;

 private:
  std::vector<Step> steps_;          // from_test ascending; steps_[0].from_test == 0
  std::uint64_t salt_ = 0;
};

}  // namespace swiftest::obs
