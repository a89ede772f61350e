// The benchmark's workloads. Each one builds its inputs from the seed in
// setup(), then runs a fixed unit of work — a round — that the driver
// repeats for the measured time. A round is a pure function of the seed, so
// its outputs and work counts must repeat exactly from round to round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// What one round produced. `outputs` (simulated results, fit quality) and
/// `counts` (work counts read from the program's counters) are compared
/// exactly across rounds; `layer` carries the per-layer values of a traced
/// round, host timings included.
struct Round {
  std::uint64_t tests = 0;   // attempted
  std::uint64_t failed = 0;  // did not complete, non-finite, or >30% off truth
  std::map<std::string, double> outputs;
  std::map<std::string, double> counts;
  std::map<std::string, double> layer;
  /// Aggregate checks against the EXPERIMENTS.md bands that did not hold.
  std::vector<std::string> violations;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds the inputs (population, registry, users, catalog) from the seed.
  /// Repeated by the driver to time set-up; each call replaces the last.
  virtual void setup(SpanRecorder* recorder) = 0;

  /// Runs one round. With a recorder the round is traced: the program's
  /// counters are attached and spans wrap each call into a layer.
  virtual Round run_round(SpanRecorder* recorder) = 0;

  /// Extra checks a traced run makes after its rounds, where an added round
  /// costs no measured time (fleet_observed: an unobserved round must give
  /// the same simulated results).
  virtual void final_checks(const Round& /*reference*/,
                            std::vector<std::string>& /*errors*/) {}
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload by name; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Every per-layer metric name with its unit, in report order. A traced run
/// reports all of them; a layer a workload does not exercise reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
