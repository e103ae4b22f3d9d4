// Shared plumbing of the end-to-end benchmark: flags, clocks, latency
// statistics, the result record every workload fills, and its printers.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans; empty = nowhere.
  std::string trace_out;
  /// Source revision for the host stamp ("unknown" outside a git checkout).
  std::string commit = "unknown";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-out P]
/// [--commit C]`. Every flag takes a value; unknown flags and malformed
/// numbers are errors (returned as a message, empty on success).
std::string ParseOptions(int argc, char** argv, Options* out);

/// Quantile q in [0, 1] of `values` (copied and sorted), by linear
/// interpolation between closest ranks. 0 when empty.
double Quantile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct RunResult {
  /// Operations attempted / failed or answered wrongly in the timed phases.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness-check failures (wrong answers, broken invariants,
  /// non-repeating exact counts), each with a one-line reason.
  std::vector<std::string> errors;
  /// The contract metrics of this mode (end-to-end untraced, per-layer
  /// traced), in BENCHMARK.json order.
  std::vector<Metric> metrics;
  /// The workload's own named metrics, printed as a table for readers.
  std::vector<Metric> detail;

  void Error(std::string message);
  /// A failed operation or check: counted in `failed` and reported.
  void Fail(std::string message) {
    ++failed;
    Error(std::move(message));
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Detail(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const { return errors.empty(); }
};

/// {"nproc": ..., "bmi2": ..., "kernel": ..., "build_type": ...,
///  "compiler": ..., "commit": ..., "seed": ...}
std::string HostStampJson(const Options& options);

/// The human-readable table of `result.detail` plus any errors.
std::string RenderDetail(const RunResult& result);

/// The contract line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}} with every digit of v.
std::string ResultJson(const RunResult& result);

/// Formats a double with 17 significant digits (round-trip exact).
std::string ExactDouble(double v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
