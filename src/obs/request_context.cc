#include "obs/request_context.h"

namespace snakes {

namespace {
thread_local RequestContext* tls_current_request = nullptr;
}  // namespace

const char* RequestVerbName(RequestVerb verb) {
  switch (verb) {
    case RequestVerb::kUnknown:
      return "unknown";
    case RequestVerb::kIngest:
      return "ingest";
    case RequestVerb::kEndEpoch:
      return "end-epoch";
    case RequestVerb::kAdvise:
      return "advise";
    case RequestVerb::kQuery:
      return "query";
    case RequestVerb::kMeasure:
      return "measure";
    case RequestVerb::kRecluster:
      return "recluster";
    case RequestVerb::kBackend:
      return "backend";
    case RequestVerb::kStatus:
      return "status";
    case RequestVerb::kRegister:
      return "register";
    case RequestVerb::kTelemetry:
      return "telemetry";
    case RequestVerb::kCostModel:
      return "costmodel";
  }
  return "unknown";
}

RequestVerb ParseRequestVerb(std::string_view verb) {
  for (int v = 0; v < kNumRequestVerbs; ++v) {
    const auto candidate = static_cast<RequestVerb>(v);
    if (verb == RequestVerbName(candidate)) return candidate;
  }
  return RequestVerb::kUnknown;
}

std::string RequestRecord::ToJson() const {
  std::string out = "{\"id\": " + std::to_string(id);
  out += ", \"tenant\": ";
  out += tenant == kNoTenant ? std::string("null") : std::to_string(tenant);
  out += ", \"verb\": \"" + std::string(RequestVerbName(verb)) + "\"";
  out += ", \"status\": \"" + std::string(StatusCodeName(status)) + "\"";
  out += ", \"enqueue_ns\": " + std::to_string(enqueue_ns);
  out += ", \"queue_ns\": " + std::to_string(queue_ns());
  out += ", \"compute_ns\": " + std::to_string(compute_ns());
  out += ", \"pages\": " + std::to_string(pages);
  out += ", \"partitions_pruned\": " + std::to_string(partitions_pruned);
  out += "}";
  return out;
}

RequestContext* RequestContext::Current() { return tls_current_request; }

RequestContextScope::RequestContextScope(RequestContext* ctx)
    : prev_(tls_current_request), active_(ctx != nullptr) {
  if (active_) tls_current_request = ctx;
}

RequestContextScope::~RequestContextScope() {
  if (active_) tls_current_request = prev_;
}

}  // namespace snakes
