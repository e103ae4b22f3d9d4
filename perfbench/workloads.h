// The three workloads of the end-to-end TPC-D service benchmark. Each one
// fills a RunResult: end-to-end metrics when untraced, per-layer metrics
// (and the spans behind them) when traced. README.md explains why each
// workload exists and which layer metric should move which end-to-end one.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <vector>

#include "bench_util.h"
#include "layer_trace.h"

namespace perfbench {

/// Spans a traced run keeps, one log per thread that recorded any.
struct TraceOutput {
  explicit TraceOutput(Clock::time_point epoch) : ids(epoch) {}
  TraceIds ids;
  std::vector<std::unique_ptr<SpanLog>> logs;

  SpanLog* NewLog(uint64_t max_requests) {
    logs.push_back(std::make_unique<SpanLog>(&ids, max_requests));
    return logs.back().get();
  }
};

/// Steady read path: one packed TPC-D tenant, two clients, ~80% Query and
/// ~20% Measure on workload-7 queries.
void RunServeTpcd(const Options& options, RunResult* result,
                  TraceOutput* trace);

/// Onboarding: two clients register fresh analytic TPC-D tenants and issue
/// one cold and one warm Advise each, a fresh service per pass.
void RunAdviseCold(const Options& options, RunResult* result,
                   TraceOutput* trace);

/// Writes beside reads: a micro-partition tenant whose ingested workload
/// alternates between Section-6 workloads 7 and 10 every epoch, reclustered
/// after each epoch while a second thread keeps querying.
void RunDriftRecluster(const Options& options, RunResult* result,
                       TraceOutput* trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
