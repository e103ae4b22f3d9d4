// Spans the traced run records around each public call it makes into a
// layer. The benchmark adds no instrumentation inside the library: a traced
// request is the real service call followed by the same request's inputs
// handed to each layer's public functions in turn, every call wrapped in a
// span. Spans of one request share its id and hang off one root span.

#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct Span {
  uint64_t request = 0;  // shared by every span of one request
  uint64_t id = 0;       // unique across the run
  uint64_t parent = 0;   // 0 for a request's root span
  const char* name = "";  // "<layer>.<call>", a string literal
  double start_us = 0.0;  // since the trace epoch
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

/// Source of request and span ids shared by every SpanLog of one run.
struct TraceIds {
  explicit TraceIds(Clock::time_point epoch_in) : epoch(epoch_in) {}
  const Clock::time_point epoch;
  std::atomic<uint64_t> next_request{1};
  std::atomic<uint64_t> next_span{1};
};

/// In-memory spans of one thread. Keeps the spans of the first
/// `max_requests` requests it opens (later requests are still timed, just
/// not kept), so memory stays bounded on long runs.
class SpanLog {
 public:
  SpanLog(TraceIds* ids, uint64_t max_requests)
      : ids_(ids), max_requests_(max_requests) {}

  /// Opens a request: returns its root span id (the request id is fixed
  /// until the next BeginRequest).
  uint64_t BeginRequest(const char* name);
  /// Closes the root span opened by BeginRequest; returns its duration.
  double EndRequest();

  /// Runs `fn()`, recording it as a child of `parent` in the current
  /// request; returns the call's duration in microseconds.
  template <typename F>
  double Time(uint64_t parent, const char* name, F&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    Record(parent, name, start, end);
    return MicrosBetween(start, end);
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t requests() const { return requests_; }

 private:
  void Record(uint64_t parent, const char* name, Clock::time_point start,
              Clock::time_point end);
  bool Keeping() const { return requests_ <= max_requests_; }

  TraceIds* ids_;
  uint64_t max_requests_;
  uint64_t requests_ = 0;
  uint64_t request_ = 0;
  uint64_t root_ = 0;
  Clock::time_point root_start_;
  /// Index of the open root span in spans_ (when kept).
  size_t root_index_ = 0;
  std::vector<Span> spans_;
};

/// Writes {"host": ..., "per_layer": {...}, "spans": [...]} to `path`.
/// Returns an error message, empty on success.
std::string WriteTrace(const std::string& path, const std::string& host_json,
                       const std::vector<Metric>& per_layer,
                       const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_
