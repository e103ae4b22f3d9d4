// Overhead guard for the always-on telemetry layer: the flight recorder,
// SLO windows, and request-context plumbing must stay under 2% of the
// service's mixed-request path.
//
// Two measurements:
//
//   1. The telemetry cost of ONE request, measured directly: everything the
//      service's request runner adds — a thread-local RequestContext scope,
//      two steady-clock reads, a request-id fetch_add, a FlightRecorder::Record
//      (seqlock claim + 9 relaxed stores), an SloWindow::Record (relaxed
//      adds + histogram bump), and two metrics-counter increments — run in
//      a tight loop over live sinks. This is an overestimate of the real
//      increment: the loop's records all contend on the same cache lines,
//      where real requests spread theirs out in time.
//
//   2. The service's mixed-request wall time per request: the same batched
//      query/measure/ingest/advise/end-epoch mix service_sim's phase 1
//      drives (Submit* onto the request pool, drained in chunks), against
//      a 4096-cell tenant — tiny next to a real warehouse, so per-request
//      compute is still understated and the ratio overstated. Recorder
//      enabled, as it always is; best-of-3.
//
// The guard SNAKES_CHECKs (per-request telemetry ns) / (per-request wall
// ns) under 2% and writes BENCH_telemetry.json.
//
//   $ ./micro_telemetry

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/slo_window.h"
#include "service/service.h"
#include "storage/fact_table.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/text_table.h"

namespace snakes {
namespace {

using Clock = std::chrono::steady_clock;

/// Cost of one request's worth of telemetry, measured over live sinks.
double TelemetryNsPerRequest() {
  FlightRecorder recorder(FlightRecorder::kDefaultCapacity);
  SloWindow slo;
  MetricsRegistry metrics;
  Counter* completed = metrics.GetCounter("bench.requests.completed");
  Counter* errors = metrics.GetCounter("bench.requests.errors");
  std::atomic<uint64_t> next_id{1};

  constexpr uint64_t kIters = 2'000'000;
  const auto bench_start = Clock::now();
  for (uint64_t i = 0; i < kIters; ++i) {
    // Everything AdvisorService's request runner adds around a request.
    RequestContext ctx;
    ctx.id = next_id.fetch_add(1, std::memory_order_relaxed);
    ctx.tenant = 0;
    ctx.verb = RequestVerb::kQuery;
    RequestContextScope scope(&ctx);
    const auto start = Clock::now();
    ctx.start_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count());
    ctx.enqueue_ns = ctx.start_ns;
    ctx.finish_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    recorder.Record(ctx);
    slo.Record(ctx.verb, ctx.compute_ns(), /*error=*/false);
    completed->Inc();
    if (false) errors->Inc();
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - bench_start)
          .count();
  SNAKES_CHECK(recorder.recorded() == kIters);
  return ns / static_cast<double>(kIters);
}

/// Wall ns per request of the batched mixed workload (service_sim's phase 1
/// shape) against a live service (recorder enabled — it always is).
/// Best-of-`reps`.
double RequestNsMixed(int reps, uint64_t* out_requests) {
  auto schema = std::make_shared<StarSchema>(
      StarSchema::Symmetric(2, 4, 4).ValueOrDie());  // 256x256 = 65536 cells
  const QueryClassLattice lat(*schema);
  double best_ns = 0.0;
  constexpr int kRequests = 4000;
  for (int rep = 0; rep < reps; ++rep) {
    ServiceConfig config;
    // One worker so wall/requests equals the true per-request cost (more
    // workers shrink wall time without changing what one request costs).
    config.request_threads = 1;
    config.recluster_on_epoch_close = false;
    config.recluster.strategies = {"row-major"};
    config.storage = StorageConfig{512, 60};
    AdvisorService service(config);
    Rng rng(1999 + static_cast<uint64_t>(rep));
    TenantSpec spec;
    spec.name = "t";
    spec.schema = schema;
    spec.facts = FactTable::Random(schema, 2, 4, &rng);
    const TenantId id = service.RegisterTenant(std::move(spec)).ValueOrDie();

    const Workload sampler = Workload::Uniform(lat);
    std::vector<std::future<Status>> ingests;
    std::vector<std::future<Result<QueryAnswer>>> queries;
    std::vector<std::future<Result<QueryIo>>> measures;
    std::vector<std::future<Result<Recommendation>>> advises;
    const auto drain = [&]() {
      for (auto& f : ingests) SNAKES_CHECK(f.get().ok());
      for (auto& f : queries) SNAKES_CHECK(f.get().ok());
      for (auto& f : measures) SNAKES_CHECK(f.get().ok());
      for (auto& f : advises) SNAKES_CHECK(f.get().ok());
      ingests.clear();
      queries.clear();
      measures.clear();
      advises.clear();
    };
    int ingested = 0;
    const auto start = Clock::now();
    for (int r = 0; r < kRequests; ++r) {
      const GridQuery query =
          SampleQuery(*schema, sampler.Sample(&rng), &rng);
      const double dice = rng.NextDouble();
      if (dice < 0.60) {
        queries.push_back(service.SubmitQuery(id, query));
      } else if (dice < 0.75) {
        measures.push_back(service.SubmitMeasure(id, query));
      } else if (dice < 0.93) {
        ingests.push_back(service.SubmitIngest(id, query));
        ++ingested;
      } else if (dice < 0.97 && ingested > 0) {
        (void)service.SubmitEndEpoch(id);
        ingested = 0;
      } else {
        advises.push_back(service.SubmitAdvise(id));
      }
      if (queries.size() + measures.size() + ingests.size() +
              advises.size() >=
          512) {
        drain();
      }
    }
    drain();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        kRequests;
    service.Shutdown();
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }
  *out_requests = kRequests;
  return best_ns;
}

void Run() {
  std::fprintf(stderr, "measuring per-request telemetry cost...\n");
  const double telemetry_ns = TelemetryNsPerRequest();
  std::fprintf(stderr, "measuring mixed-request service path...\n");
  uint64_t requests = 0;
  const double request_ns = RequestNsMixed(3, &requests);
  const double overhead_pct = 100.0 * telemetry_ns / request_ns;

  TextTable table({"metric", "value"});
  table.AddRow({"telemetry ns/request", FormatDouble(telemetry_ns, 1)});
  table.AddRow({"mixed request ns", FormatDouble(request_ns, 0)});
  table.AddRow({"overhead bound", FormatDouble(overhead_pct, 3) + "%"});
  std::printf("%s\n", table.Render().c_str());

  SNAKES_CHECK(overhead_pct < 2.0)
      << "telemetry bound " << overhead_pct << "% exceeds the 2% budget";

  std::string json = "{\n  \"bench\": \"telemetry_overhead\",\n";
  json += "  \"telemetry_ns_per_request\": " + FormatDouble(telemetry_ns, 2) +
          ",\n";
  json += "  \"mixed_request_ns\": " + FormatDouble(request_ns, 1) + ",\n";
  json += "  \"mixed_requests\": " + std::to_string(requests) + ",\n";
  json += "  \"overhead_bound_pct\": " + FormatDouble(overhead_pct, 4) + ",\n";
  json += "  \"budget_pct\": 2.0\n}\n";
  const char* path = "BENCH_telemetry.json";
  std::ofstream out(path);
  out << json;
  SNAKES_CHECK(out.good()) << "failed to write " << path;
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace snakes

int main() {
  snakes::Run();
  return 0;
}
