// tpcd_service_bench — end-to-end benchmark of the AdvisorService on the
// paper's TPC-D warehouse.
//
//   tpcd_service_bench --workload serve-tpcd|advise-cold|drift-recluster
//                      --seed N --seconds S --trace 0|1
//                      [--trace-out PATH] [--commit REV]
//
// Prints the host stamp, a table of the workload's named metrics, and as
// the last line of standard output one JSON object:
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 0 only
// when every correctness check passed. perfbench/run.py builds and runs it.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  const std::string flag_error = ParseOptions(argc, argv, &options);
  if (!flag_error.empty()) {
    std::fprintf(stderr, "tpcd_service_bench: %s\n", flag_error.c_str());
    return 2;
  }
  void (*run)(const Options&, RunResult*, TraceOutput*) = nullptr;
  if (options.workload == "serve-tpcd") {
    run = RunServeTpcd;
  } else if (options.workload == "advise-cold") {
    run = RunAdviseCold;
  } else if (options.workload == "drift-recluster") {
    run = RunDriftRecluster;
  } else {
    std::fprintf(stderr, "tpcd_service_bench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  const std::string host = HostStampJson(options);
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  RunResult result;
  TraceOutput trace(Clock::now());
  run(options, &result, options.trace ? &trace : nullptr);
  if (options.trace && !options.trace_out.empty()) {
    std::vector<const SpanLog*> logs;
    for (const auto& log : trace.logs) logs.push_back(log.get());
    const std::string error =
        WriteTrace(options.trace_out, host, result.metrics, logs);
    if (!error.empty()) result.Fail(error);
  }

  std::printf("%s %s\n%s", options.workload.c_str(),
              options.trace ? "(traced)" : "(untraced)",
              RenderDetail(result).c_str());
  std::printf("%s\n", ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct() && result.failed == 0 ? 0 : 1;
}
