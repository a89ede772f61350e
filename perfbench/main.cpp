// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// Runs one workload (workloads.hpp) from its seed: times repeated set-ups,
// then repeats the workload's fixed round for S seconds and reports the
// median over rounds. --trace 1 instead reports per-layer metrics from two
// traced rounds, measured against untraced rounds of the same run. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the line before it records the run's provenance.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/resource.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

// Set-up takes milliseconds, too short to time once: it is repeated for at
// least this long (and this many times) and the median reported.
constexpr double kSetupSeconds = 1.0;
constexpr int kSetupRepeats = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Options& opt) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && opt.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n";
    return false;
  }
  return true;
}

double load_average_1m() {
  double loads[3] = {0, 0, 0};
  return getloadavg(loads, 3) >= 1 ? loads[0] : -1.0;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  out += '"';
}

/// Build type, compiler, hardware threads, load average and seed: what a
/// reader needs to judge whether two runs can be compared.
std::string provenance_json(const Options& opt, double load_start, double load_end) {
  std::string out = "{\"provenance\": {\"build_type\": ";
  append_string(out, PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": ";
  append_string(out, PERFBENCH_CXX_FLAGS);
  out += ", \"compiler\": ";
#if defined(__clang__)
  append_string(out, std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  append_string(out, std::string("gcc ") + __VERSION__);
#else
  append_string(out, "unknown");
#endif
  out += ", \"hw_threads\": ";
  append_number(out, static_cast<double>(std::thread::hardware_concurrency()));
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : -1;
  out += ", \"nproc\": ";
  append_number(out, static_cast<double>(nproc));
  out += ", \"loadavg_1m_start\": ";
  append_number(out, load_start);
  out += ", \"loadavg_1m_end\": ";
  append_number(out, load_end);
  out += ", \"workload\": ";
  append_string(out, opt.workload);
  out += ", \"seed\": ";
  append_number(out, static_cast<double>(opt.seed));
  out += ", \"seconds\": ";
  append_number(out, opt.seconds);
  out += ", \"trace\": ";
  out += opt.trace ? "true" : "false";
  out += "}}";
  return out;
}

void write_spans(const std::string& path, const SpanRecorder& recorder,
                 const std::string& provenance) {
  std::string out = "{\"meta\": " + provenance + ", \"spans\": [";
  const auto& spans = recorder.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += "{\"id\": " + std::to_string(i) + ", \"name\": ";
    append_string(out, spans[i].name);
    out += ", \"parent\": " + std::to_string(spans[i].parent) +
           ", \"start_ns\": " + std::to_string(spans[i].start_ns) +
           ", \"end_ns\": " + std::to_string(spans[i].end_ns) +
           ", \"self_ns\": " + std::to_string(self_time_ns(spans, i)) + "}";
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file) std::cerr << "perfbench: cannot write spans to " << path << "\n";
}

struct Timed {
  Round round;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Timed timed_round(Workload& workload, SpanRecorder& recorder, bool traced) {
  Timed t;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  {
    SpanScope span(&recorder, traced ? "round.traced" : "round");
    t.round = workload.run_round(traced ? &recorder : nullptr);
  }
  t.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  t.cpu_s = process_cpu_seconds() - cpu0;
  return t;
}

/// Exact comparison of a round's deterministic values against the first
/// round's: any difference is a determinism failure, never noise.
void compare_exact(const std::map<std::string, double>& want,
                   const std::map<std::string, double>& got, const char* what, int round,
                   std::vector<std::string>& errors) {
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    if (it == got.end() || !(it->second == value)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << what << " '" << key << "' drifted in round " << round << ": " << value
          << " then " << (it == got.end() ? NAN : it->second);
      errors.push_back(msg.str());
    }
  }
}

int run(const Options& opt) {
  const double load_start = load_average_1m();
  auto workload = make_workload(opt.workload, opt.seed);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "' (expected one of";
    for (const auto& name : workload_names()) std::cerr << " " << name;
    std::cerr << ")\n";
    return 2;
  }
  SpanRecorder recorder;
  std::vector<std::string> errors;

  std::vector<double> setup_s;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_s.size() < static_cast<std::size_t>(kSetupRepeats) ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start)
                 .count() < kSetupSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      SpanScope span(&recorder, "setup");
      workload->setup(nullptr);
    }
    setup_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }

  // Untraced rounds: the end-to-end measurement, and in a traced run the
  // baseline the tracing overhead is measured against. A round starts only
  // if it should end within the budget, so a run measures about --seconds
  // whatever the round length; there is always at least one.
  std::vector<Timed> rounds;
  const double budget_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  double spent_s = 0.0;
  while (rounds.empty() || spent_s + rounds.back().wall_s <= budget_s) {
    rounds.push_back(timed_round(*workload, recorder, false));
    spent_s += rounds.back().wall_s;
  }
  const Round& first = rounds.front().round;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> tests_per_s, cpu_ms_per_test, wall_s, cpu_ns_per_event;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Timed& t = rounds[i];
    attempted += t.round.tests;
    failed += t.round.failed;
    compare_exact(first.outputs, t.round.outputs, "output", static_cast<int>(i), errors);
    compare_exact(first.counts, t.round.counts, "count", static_cast<int>(i), errors);
    const double tests = static_cast<double>(std::max<std::uint64_t>(t.round.tests, 1));
    tests_per_s.push_back(tests / t.wall_s);
    cpu_ms_per_test.push_back(1000.0 * t.cpu_s / tests);
    wall_s.push_back(t.wall_s);
    const auto events = t.round.counts.find("events");
    if (events != t.round.counts.end() && events->second > 0) {
      cpu_ns_per_event.push_back(1e9 * t.cpu_s / events->second);
    }
  }
  for (const auto& v : first.violations) errors.push_back(v);

  std::map<std::string, double> layer;
  if (opt.trace) {
    // Set-up's and the first traced round's dataset spans make up the
    // dataset layer's time.
    const std::size_t setup_first = recorder.spans().size();
    {
      SpanScope span(&recorder, "setup.traced");
      workload->setup(&recorder);
    }
    std::vector<Timed> traced;
    traced.push_back(timed_round(*workload, recorder, true));
    const double generate_ms = recorder.self_ms("dataset.generate", setup_first);
    traced.push_back(timed_round(*workload, recorder, true));
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const Round& r = traced[i].round;
      attempted += r.tests;
      failed += r.failed;
      compare_exact(first.outputs, r.outputs, "traced output", static_cast<int>(i), errors);
      // Attaching counters must not move the work: the untraced rounds'
      // counts hold in traced rounds too.
      compare_exact(first.counts, r.counts, "traced count", static_cast<int>(i), errors);
    }
    compare_exact(traced[0].round.counts, traced[1].round.counts, "traced count", 1, errors);
    layer = traced[0].round.layer;
    layer["dataset.generate_ms"] = generate_ms;
    if (!cpu_ns_per_event.empty()) layer["netsim.ns_per_event"] = median(cpu_ns_per_event);
    layer["trace.overhead_share"] =
        median({traced[0].wall_s, traced[1].wall_s}) / median(wall_s) - 1.0;
    workload->final_checks(first, errors);
    for (const auto& [name, value] : layer) {
      bool known = false;
      for (const auto& [want, unit] : layer_metrics()) known = known || want == name;
      if (!known) errors.push_back("workload reported unknown layer metric " + name);
    }
  }

  if (failed > 0) {
    errors.push_back(std::to_string(failed) + " of " + std::to_string(attempted) +
                     " tests failed");
  }

  const double peak_rss_mb = swiftest::obs::read_resource_usage().peak_rss_mb;
  const std::string provenance = provenance_json(opt, load_start, load_average_1m());
  if (!opt.spans_out.empty()) write_spans(opt.spans_out, recorder, provenance);

  // Human-readable context on stderr: round count and the in-run spread.
  std::cerr << "perfbench " << opt.workload << " seed " << opt.seed << ": " << rounds.size()
            << " rounds, tests/s spread " << relative_spread(tests_per_s)
            << ", setup spread " << relative_spread(setup_s) << "; round wall s:";
  for (const double w : wall_s) std::cerr << " " << w;
  if (const auto events = first.counts.find("events"); events != first.counts.end()) {
    std::cerr << "; events/test "
              << events->second / static_cast<double>(std::max<std::uint64_t>(first.tests, 1));
  }
  std::cerr << "\n";
  for (const auto& e : errors) std::cerr << "perfbench: FAIL " << e << "\n";

  std::string out = "{\"correct\": ";
  out += errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first_metric = true;
  const auto metric = [&](const std::string& name, double value, const char* unit) {
    out += first_metric ? "" : ", ";
    first_metric = false;
    append_string(out, name);
    out += ": {\"value\": ";
    append_number(out, value);
    out += ", \"unit\": ";
    append_string(out, unit);
    out += "}";
  };
  if (opt.trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = layer.find(name);
      metric(name, it == layer.end() ? 0.0 : it->second, unit.c_str());
    }
  } else {
    metric("setup_s", median(setup_s), "s");
    metric("tests_per_s", median(tests_per_s), "1/s");
    metric("cpu_ms_per_test", median(cpu_ms_per_test), "ms");
    metric("peak_rss_mb", peak_rss_mb, "MB");
    metric("sim_test_s", first.outputs.at("sim_test_s"), "sim_s");
    metric("sim_data_mb", first.outputs.at("sim_data_mb"), "MB");
    metric("fit_nll", first.outputs.at("fit_nll"), "nats");
  }
  out += "}}";
  std::cout << provenance << "\n" << out << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_args(argc, argv, opt)) return 2;
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
