// snakes_cli telemetry — drive a small multi-tenant advisor service and
// print its live telemetry, as Prometheus text exposition or JSON.
//
//   snakes_cli telemetry [--format prom|json|recorder] [--flag value]...
//
// Registers N tenants, runs a mixed request storm (queries, measures,
// ingests, advises, epoch closes with background reclusters), then renders
// the service's TelemetrySnapshot:
//
//   prom      Prometheus exposition: SLO latency summaries (p50/p99 per
//             tenant x verb), error rates, epoch age, recluster backlog,
//             audit decision counts — what a scraper would pull from a
//             /metrics endpoint.
//   json      The full snapshot: flight-recorder requests, per-tenant SLO
//             windows, the recluster decision audit log, tracer stats.
//   recorder  Just the flight recorder (the "what were the last 4096
//             requests" crash-cart view).
//
// The exposition comes from the same Dispatch verb the service serves
// (`telemetry prom` / `telemetry` / `telemetry recorder`), so this command
// exercises the real surface, not a parallel rendering path.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "storage/fact_table.h"
#include "tools/flags.h"
#include "util/result.h"
#include "util/rng.h"

namespace snakes {

int RunTelemetry(int argc, char** argv) {
  std::string format = "prom", out_path;
  int tenants = 3, requests = 600;
  uint64_t seed = 1999;
  FlagSet flags("snakes_cli telemetry");
  flags.Text("--format", &format, "prom, json or recorder");
  flags.Int("--tenants", &tenants, "tenants to register", 1);
  flags.Int("--requests", &requests, "mixed requests to serve");
  flags.Uint64("--seed", &seed, "traffic and fact-table seed");
  flags.Text("--out", &out_path, "write the rendering here instead of stdout");
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;
  if (format != "prom" && format != "json" && format != "recorder") {
    return flags.UsageError("--format must be prom, json, or recorder; got '" +
                            format + "'");
  }

  MetricsRegistry metrics;
  Tracer tracer;
  ServiceConfig config;
  config.request_threads = 2;
  config.window_epochs = 1;
  config.recluster_on_epoch_close = true;
  config.recluster.strategies = {"row-major"};
  config.storage = StorageConfig{512, 60};
  config.obs = ObsSink{&metrics, &tracer};
  AdvisorService service(config);

  auto schema = std::make_shared<StarSchema>(
      StarSchema::Symmetric(2, 2, 2).ValueOrDie());
  const QueryClassLattice lat(*schema);
  Rng rng(seed);
  std::vector<TenantId> ids;
  for (int t = 0; t < tenants; ++t) {
    TenantSpec spec;
    spec.name = "tenant" + std::to_string(t);
    spec.schema = schema;
    spec.facts = FactTable::Random(schema, 1, 3, &rng);
    spec.initial_workload = Workload::Random(lat, &rng);
    auto id = service.RegisterTenant(std::move(spec));
    if (!id.ok()) return Fail(id.status());
    ids.push_back(id.value());
  }

  // Mixed traffic: enough of every verb that the SLO windows, the flight
  // recorder, and the audit log all have something to show.
  const Workload sampler = Workload::Uniform(lat);
  std::vector<int> ingested(static_cast<size_t>(tenants), 0);
  for (int r = 0; r < requests; ++r) {
    const size_t t = rng.Below(static_cast<uint64_t>(tenants));
    const TenantId id = ids[t];
    const GridQuery query =
        SampleQuery(*schema, sampler.Sample(&rng), &rng);
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      (void)service.Query(id, query);
    } else if (dice < 0.70) {
      (void)service.Measure(id, query);
    } else if (dice < 0.90) {
      (void)service.Ingest(id, query);
      ++ingested[t];
    } else if (dice < 0.96 && ingested[t] > 0) {
      (void)service.EndEpoch(id);  // fires a background recluster
      ingested[t] = 0;
    } else {
      (void)service.Advise(id);
    }
  }
  service.Shutdown();  // drain background reclusters into the recorder

  const Result<std::string> rendered = service.Dispatch(
      "tenant0", format == "json" ? "telemetry" : "telemetry " + format);
  if (!rendered.ok()) return Fail(rendered.status());

  if (!out_path.empty()) {
    const Status written = WriteStringToFile(out_path, rendered.value());
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  } else {
    std::fputs(rendered.value().c_str(), stdout);
  }
  return 0;
}

}  // namespace snakes
