// snakes_cli report — end-to-end observability demo and smoke tool.
//
//   snakes_cli report [--out DIR] [--workload 1..27] [--queries N]
//
// Generates a small TPC-D-style warehouse, runs an instrumented Advise over
// every applicable strategy family (with storage measurement), replays a
// query stream through an instrumented LRU page cache under the recommended
// snaked layout, and writes:
//
//   DIR/metrics.json — every counter/gauge/histogram (cache hit rate, seeks,
//                      per-strategy timings, DP work, ...)
//   DIR/trace.json   — Chrome trace_event JSON; open in chrome://tracing or
//                      https://ui.perfetto.dev to see spans nested
//                      request -> strategy -> DP phase -> storage I/O.
//
// The metrics table and the recommendation summary go to stdout.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "core/advisor.h"
#include "core/evaluation.h"
#include "core/spec.h"
#include "curves/path_order.h"
#include "lattice/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/cache.h"
#include "storage/pager.h"
#include "tools/flags.h"
#include "tpcd/dbgen.h"
#include "tpcd/workloads.h"
#include "util/result.h"
#include "util/rng.h"

namespace snakes {

int RunReport(int argc, char** argv) {
  std::string out_dir = ".";
  int workload_id = 7;
  uint64_t num_queries = 500;
  FlagSet flags("snakes_cli report");
  flags.Text("--out", &out_dir, "directory for metrics.json and trace.json");
  flags.Int("--workload", &workload_id, "TPC-D Section-6 workload id", 1,
            tpcd::kNumWorkloads);
  flags.Uint64("--queries", &num_queries, "queries replayed through the cache");
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Fail(
        Status::Internal("cannot create " + out_dir + ": " + ec.message()));
  }

  // Small, so the command works as a CI smoke step.
  auto warehouse =
      tpcd::GenerateWarehouse(tpcd::Config::Small(6'000), 31);
  if (!warehouse.ok()) return Fail(warehouse.status());
  const auto& schema = warehouse.value().schema;

  const QueryClassLattice lat(*schema);
  auto mu = tpcd::SectionSixWorkload(lat, workload_id);
  if (!mu.ok()) return Fail(mu.status());

  // Both backends live for the whole run; every phase appends to them.
  MetricsRegistry metrics;
  Tracer tracer;
  const ObsSink obs{&metrics, &tracer};

  EvaluationRequest request{mu.value()};
  request.measure_storage = true;
  request.storage = StorageConfig{2048, 125};
  request.facts = warehouse.value().facts;
  request.obs = obs;
  const ClusteringAdvisor advisor(schema);
  auto rec = advisor.Advise(request);
  if (!rec.ok()) return Fail(rec.status());

  // Replay a query stream through an LRU cache sized at ~5% of the data
  // under the recommended snaked layout, then derive the hit-rate gauge.
  {
    ScopedSpan span(obs.tracer, "cache/replay", "storage");
    auto order =
        MakePathOrder(schema, rec.value().optimal_snaked_path, true);
    if (!order.ok()) return Fail(order.status());
    auto layout =
        PackedLayout::Pack(std::move(order).value(), warehouse.value().facts,
                           request.storage, obs);
    if (!layout.ok()) return Fail(layout.status());
    LruPageCache cache(std::max<uint64_t>(1, layout.value().num_pages() / 20),
                       obs);
    Rng rng(11);
    const CachedRunStats stats = ReplayWorkload(
        layout.value(), mu.value(), num_queries, &cache, &rng);
    metrics.GetGauge("cache.hit_rate")->Set(cache.HitRate());
    span.AddArg("queries", stats.queries);
    span.AddArg("page_accesses", stats.page_accesses);
    span.AddArg("disk_reads", stats.disk_reads);
  }

  const MetricsSnapshot snap = metrics.Snapshot();
  const std::string metrics_path = out_dir + "/metrics.json";
  const std::string trace_path = out_dir + "/trace.json";
  Status written = WriteStringToFile(metrics_path, snap.ToJson());
  if (written.ok()) {
    written = WriteStringToFile(trace_path, tracer.ToChromeJson());
  }
  if (!written.ok()) return Fail(written);

  std::printf("%s\n", rec.value().ToString().c_str());
  std::printf("%s\n", snap.ToTable().c_str());
  std::printf("wrote %s (%zu metrics) and %s (%zu spans)\n",
              metrics_path.c_str(),
              snap.counters.size() + snap.gauges.size() +
                  snap.histograms.size(),
              trace_path.c_str(), tracer.num_events());
  return 0;
}

}  // namespace snakes
