#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

#include "curves/bit_interleave.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool ParsePositiveDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::string ParseOptions(int argc, char** argv, Options* out) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "flag " + flag + " needs a value";
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &out->seed)) {
        return "bad --seed " + std::string(value);
      }
    } else if (flag == "--seconds") {
      if (!ParsePositiveDouble(value, &out->seconds)) {
        return "bad --seconds " + std::string(value);
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") == 0) {
        out->trace = false;
      } else if (std::strcmp(value, "1") == 0) {
        out->trace = true;
      } else {
        return "bad --trace " + std::string(value) + " (want 0 or 1)";
      }
    } else if (flag == "--trace-out") {
      out->trace_out = value;
    } else if (flag == "--commit") {
      out->commit = value;
    } else {
      return "unknown flag " + flag;
    }
  }
  if (!have_workload) return "missing --workload";
  return "";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void RunResult::Error(std::string message) {
  // Bounded: a systematic defect repeats per request, one line says enough.
  if (errors.size() < 32) errors.push_back(std::move(message));
}

std::string ExactDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HostStampJson(const Options& options) {
  using snakes::curve_internal::ActiveKernel;
  using snakes::curve_internal::Bmi2Supported;
  using snakes::curve_internal::KernelKind;
  std::string json = "{";
  json += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"bmi2\": ";
  json += Bmi2Supported() ? "true" : "false";
  json += ", \"kernel\": \"";
  json += ActiveKernel() == KernelKind::kBmi2 ? "bmi2" : "portable";
  json += "\", \"build_type\": \"" + snakes::JsonEscape(PERFBENCH_BUILD_TYPE);
  json += "\", \"compiler\": \"" + snakes::JsonEscape(__VERSION__);
  json += "\", \"commit\": \"" + snakes::JsonEscape(options.commit);
  json += "\", \"workload\": \"" + snakes::JsonEscape(options.workload);
  json += "\", \"seed\": " + std::to_string(options.seed);
  json += ", \"seconds\": " + ExactDouble(options.seconds);
  json += ", \"trace\": ";
  json += options.trace ? "true" : "false";
  json += "}";
  return json;
}

std::string RenderDetail(const RunResult& result) {
  size_t width = 6;
  for (const Metric& m : result.detail) width = std::max(width, m.name.size());
  std::string out;
  char line[256];
  for (const Metric& m : result.detail) {
    std::snprintf(line, sizeof(line), "  %-*s %14.4f %s\n",
                  static_cast<int>(width), m.name.c_str(), m.value,
                  m.unit.c_str());
    out += line;
  }
  for (const std::string& e : result.errors) out += "  ERROR " + e + "\n";
  return out;
}

std::string ResultJson(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + snakes::JsonEscape(m.name) + "\": {\"value\": " +
            ExactDouble(m.value) + ", \"unit\": \"" +
            snakes::JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
