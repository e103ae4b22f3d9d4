#include "layer_trace.h"

#include <fstream>

#include "obs/metrics.h"

namespace perfbench {

namespace {

double SinceEpoch(const TraceIds& ids, Clock::time_point t) {
  return MicrosBetween(ids.epoch, t);
}

}  // namespace

uint64_t SpanLog::BeginRequest(const char* name) {
  ++requests_;
  request_ = ids_->next_request.fetch_add(1, std::memory_order_relaxed);
  root_ = ids_->next_span.fetch_add(1, std::memory_order_relaxed);
  root_start_ = Clock::now();
  if (Keeping()) {
    Span span;
    span.request = request_;
    span.id = root_;
    span.name = name;
    root_index_ = spans_.size();
    spans_.push_back(span);
  }
  return root_;
}

double SpanLog::EndRequest() {
  const Clock::time_point end = Clock::now();
  if (Keeping()) {
    spans_[root_index_].start_us = SinceEpoch(*ids_, root_start_);
    spans_[root_index_].end_us = SinceEpoch(*ids_, end);
  }
  return MicrosBetween(root_start_, end);
}

void SpanLog::Record(uint64_t parent, const char* name,
                     Clock::time_point start, Clock::time_point end) {
  if (!Keeping()) return;
  Span span;
  span.request = request_;
  span.id = ids_->next_span.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.name = name;
  span.start_us = SinceEpoch(*ids_, start);
  span.end_us = SinceEpoch(*ids_, end);
  spans_.push_back(span);
}

std::string WriteTrace(const std::string& path, const std::string& host_json,
                       const std::vector<Metric>& per_layer,
                       const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return "cannot open trace file " + path;
  out << "{\"host\": " << host_json << ",\n \"per_layer\": {";
  for (size_t i = 0; i < per_layer.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << snakes::JsonEscape(per_layer[i].name)
        << "\": {\"value\": " << ExactDouble(per_layer[i].value)
        << ", \"unit\": \"" << snakes::JsonEscape(per_layer[i].unit) << "\"}";
  }
  out << "},\n \"spans\": [";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << (first ? "\n  " : ",\n  ") << "{\"request\": " << s.request
          << ", \"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_us\": "
          << ExactDouble(s.start_us) << ", \"end_us\": "
          << ExactDouble(s.end_us) << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) return "failed writing trace file " + path;
  return "";
}

}  // namespace perfbench
