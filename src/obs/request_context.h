#ifndef SNAKES_OBS_REQUEST_CONTEXT_H_
#define SNAKES_OBS_REQUEST_CONTEXT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace snakes {

/// The request verbs a serving layer attributes work to. One enum shared by
/// the request context, the flight recorder, and the SLO windows so a
/// record's verb is a single byte instead of an interned string.
enum class RequestVerb : uint8_t {
  kUnknown = 0,
  kIngest,
  kEndEpoch,
  kAdvise,
  kQuery,
  kMeasure,
  kRecluster,
  kBackend,
  kStatus,
  kRegister,
  kTelemetry,
  kCostModel,
};

/// Number of distinct RequestVerb values (array-index bound).
inline constexpr int kNumRequestVerbs = 12;

/// Short stable name ("query", "end-epoch", ...) for reports and JSON.
const char* RequestVerbName(RequestVerb verb);

/// Parses the textual Dispatch verb ("advise", "end-epoch", ...) into a
/// RequestVerb; kUnknown for anything unrecognized.
RequestVerb ParseRequestVerb(std::string_view verb);

/// Sentinel tenant for requests that never resolved one (unknown tenant
/// names, registration failures).
inline constexpr uint64_t kNoTenant = UINT64_MAX;

/// One completed request, condensed to plain integers so a record fits in a
/// handful of atomic words: who (tenant), what (verb), when (enqueue/start/
/// finish on the service's epoch clock), how it ended (status), and what it
/// touched (pages, partitions pruned).
struct RequestRecord {
  uint64_t id = 0;
  uint64_t tenant = kNoTenant;
  RequestVerb verb = RequestVerb::kUnknown;
  StatusCode status = StatusCode::kOk;
  uint64_t enqueue_ns = 0;
  uint64_t start_ns = 0;
  uint64_t finish_ns = 0;
  uint64_t pages = 0;
  uint64_t partitions_pruned = 0;

  uint64_t queue_ns() const {
    return start_ns >= enqueue_ns ? start_ns - enqueue_ns : 0;
  }
  uint64_t compute_ns() const {
    return finish_ns >= start_ns ? finish_ns - start_ns : 0;
  }

  /// One-line JSON object ({"id": .., "tenant": .., ...}).
  std::string ToJson() const;
};

/// One in-flight request: the record it completes as, filled in while it
/// runs (enqueue_ns equals start_ns for sync calls). The serving layer stacks
/// the active context in a thread-local (RequestContextScope), so
/// instrumentation deep in the library — ScopedSpan in particular — can
/// attribute work to a real request id without any parameter plumbing:
/// every span recorded while a context is active carries an "rid" arg, which
/// is what nests advisor/storage spans under the request in a Chrome trace.
struct RequestContext : RequestRecord {
  /// The innermost active context on this thread; null outside any request.
  /// Nested handlers (a Dispatch verb calling the sync surface) see the
  /// outermost request they serve — scopes stack.
  static RequestContext* Current();
};

/// RAII: makes `ctx` the thread's current request context, restoring the
/// previous one (usually null) on destruction. Null `ctx` is a no-op scope,
/// so callers can pass "no context" without branching.
class RequestContextScope {
 public:
  explicit RequestContextScope(RequestContext* ctx);
  ~RequestContextScope();
  RequestContextScope(const RequestContextScope&) = delete;
  RequestContextScope& operator=(const RequestContextScope&) = delete;

 private:
  RequestContext* prev_;
  bool active_;
};

}  // namespace snakes

#endif  // SNAKES_OBS_REQUEST_CONTEXT_H_
