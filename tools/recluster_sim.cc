// snakes_cli recluster — replay a drifting TPC-D workload trace through
// the incremental reclustering engine.
//
//   snakes_cli recluster [--flag value]...   (--help lists the flags)
//
// --telemetry PATH writes a TelemetrySnapshot JSON at exit: each epoch's
// OnEpoch call is recorded as a `recluster` request (and its replay as a
// `query` request) in a flight recorder + SLO window, and every
// ReclusterDecision lands in the audit log with its inputs — the same
// artifact shape the advisor service's `telemetry` verb serves, so the
// check.sh validators apply to both.
//
// The trace interpolates between two Section-6 workloads (--from, --to;
// ids 1..27): epoch e's observed workload is the normalized blend
// (1 - t) * from + t * to with t = e / (epochs - 1), so probability mass
// migrates gradually across the lattice the way a reporting calendar
// shifts analyst behavior. Each epoch the engine re-advises incrementally
// (memoized per-class costs + DP cache), prices the best re-layout by
// rank-run movement, and adopts only when the net benefit clears the
// hysteresis/budget/cooldown guards. After each decision the epoch's
// queries replay through an LRU page cache over the live layout;
// LruPageCache::ResetStats() isolates per-epoch hit rates (the pool stays
// warm across epochs, and is cleared when a re-layout lands).
//
// With --backend micropartition the engine packs adopted layouts into
// micro-partitions and the table gains a live pruned% column — the fraction
// of the partition directory a sample of the epoch's own queries skips via
// zone maps. Sweeping --from/--to under both backends compares how
// clustering depth (movement spent reordering) trades against pruning
// power (partitions skipped without reordering anything).

#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo_window.h"
#include "recluster/engine.h"
#include "service/telemetry.h"
#include "storage/backend.h"
#include "storage/cache.h"
#include "tools/flags.h"
#include "tpcd/dbgen.h"
#include "tpcd/workloads.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/text_table.h"

namespace snakes {
namespace {

Result<Workload> Blend(const Workload& from, const Workload& to, double t) {
  std::vector<double> p(from.size());
  for (uint64_t i = 0; i < from.size(); ++i) {
    p[i] = (1.0 - t) * from.probability_at(i) + t * to.probability_at(i);
  }
  return Workload::FromDense(from.lattice(), std::move(p),
                             /*normalize=*/true);
}

}  // namespace

int RunRecluster(int argc, char** argv) {
  int epochs = 12, from_id = 7, to_id = 21, cooldown = 2;
  uint64_t queries = 400, cache_pages = 64, budget = 0, seed = 1999;
  double drift_threshold = 0.01, hysteresis = 0.02, alpha = 0.4;
  std::string telemetry_path, backend_name = "packed";
  FlagSet flags("snakes_cli recluster");
  flags.Int("--epochs", &epochs, "epochs in the drifting trace", 2);
  flags.Uint64("--queries", &queries, "queries replayed per epoch");
  flags.Uint64("--cache-pages", &cache_pages, "LRU page-cache capacity");
  flags.Int("--from", &from_id, "Section-6 workload the trace starts at", 1,
            tpcd::kNumWorkloads);
  flags.Int("--to", &to_id, "Section-6 workload the trace ends at", 1,
            tpcd::kNumWorkloads);
  flags.Double("--drift-threshold", &drift_threshold,
               "re-advise only above this total-variation drift", 0.0, 1.0);
  flags.Double("--hysteresis", &hysteresis,
               "minimum relative improvement to adopt", 0.0, 1.0);
  flags.Uint64("--budget", &budget, "movement budget in pages (0: none)");
  flags.Int("--cooldown", &cooldown, "epochs to hold after an adoption");
  flags.Double("--alpha", &alpha, "EWMA weight of the newest epoch",
               std::numeric_limits<double>::min(), 1.0);
  flags.Uint64("--seed", &seed, "warehouse and replay seed");
  flags.Text("--telemetry", &telemetry_path,
             "write a TelemetrySnapshot JSON here at exit");
  flags.Text("--backend", &backend_name, "packed or micropartition");
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;
  auto backend_kind = ParseStorageBackendKind(backend_name);
  if (!backend_kind.ok()) {
    return flags.UsageError(backend_kind.status().message());
  }

  // Small warehouse: each epoch's full pipeline (advise + pack + replay)
  // stays fast enough for CI while still spanning thousands of pages.
  auto warehouse =
      tpcd::GenerateWarehouse(tpcd::Config::Small(8'000), seed);
  if (!warehouse.ok()) return Fail(warehouse.status());
  const auto& schema = warehouse.value().schema;
  const QueryClassLattice lat(*schema);

  auto from = tpcd::SectionSixWorkload(lat, from_id);
  if (!from.ok()) return Fail(from.status());
  auto to = tpcd::SectionSixWorkload(lat, to_id);
  if (!to.ok()) return Fail(to.status());
  std::printf("drifting trace: %s  ->  %s over %d epochs\n",
              tpcd::DescribeWorkload(from_id).c_str(),
              tpcd::DescribeWorkload(to_id).c_str(), epochs);

  MetricsRegistry metrics;
  const ObsSink obs{&metrics, nullptr};

  ReclusterConfig rc;
  rc.ewma_alpha = alpha;
  rc.readvise_drift_threshold = drift_threshold;
  rc.queries_per_epoch = static_cast<double>(queries);
  rc.movement_cost_per_page = 1.0;
  rc.movement_budget_pages = budget;
  rc.hysteresis_min_improvement = hysteresis;
  rc.cooldown_epochs = cooldown;
  rc.storage = StorageConfig{2048, 125};
  rc.backend = backend_kind.value();
  rc.obs = obs;
  ReclusterEngine engine(schema, warehouse.value().facts, rc);

  LruPageCache cache(cache_pages, obs);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  // Telemetry sinks, populated per epoch when --telemetry is set: OnEpoch
  // and the replay become flight-recorder requests, decisions become audit
  // entries.
  const auto clock_epoch = std::chrono::steady_clock::now();
  const auto now_ns = [&clock_epoch]() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - clock_epoch)
            .count());
  };
  FlightRecorder recorder(256);
  SloWindow slo;
  ReclusterAuditLog audit(static_cast<size_t>(epochs) + 1);
  uint64_t next_request_id = 1;
  const auto record = [&](RequestVerb verb, uint64_t start_ns,
                          StatusCode status) {
    RequestRecord rec;
    rec.id = next_request_id++;
    rec.verb = verb;
    rec.status = status;
    rec.enqueue_ns = start_ns;
    rec.start_ns = start_ns;
    rec.finish_ns = now_ns();
    recorder.Record(rec);
    slo.Record(verb, rec.compute_ns(), status != StatusCode::kOk);
  };

  TextTable table({"epoch", "drift", "decision", "layout", "cost", "evals",
                   "cached", "pages moved", "cache hit%", "pruned%"});
  for (int e = 0; e < epochs; ++e) {
    const double t = static_cast<double>(e) / (epochs - 1);
    auto mu = Blend(from.value(), to.value(), t);
    if (!mu.ok()) return Fail(mu.status());
    const uint64_t epoch_start = now_ns();
    auto report = engine.OnEpoch(mu.value());
    record(RequestVerb::kRecluster, epoch_start, report.status().code());
    if (!report.ok()) return Fail(report.status());
    const EpochReport& r = report.value();
    {
      ReclusterAuditEntry entry;
      entry.timestamp_ns = now_ns();
      entry.request_id = next_request_id - 1;
      entry.engine_epoch = r.epoch;
      entry.decision = r.decision;
      entry.drift = r.drift;
      entry.budget_pages = rc.movement_budget_pages;
      entry.current_cost = r.current_cost;
      entry.proposed_cost = r.proposed_cost;
      entry.relative_improvement = r.relative_improvement;
      entry.net_benefit = r.net_benefit;
      entry.pages_moved = r.movement.pages_moved();
      entry.current_strategy = r.current_strategy;
      entry.proposed_strategy = r.proposed_strategy;
      audit.Record(std::move(entry));
    }

    // Replay this epoch's queries against the live layout. An adopted
    // re-layout invalidates the pool (same page ids, different bytes);
    // otherwise only the stats reset so the hit rate is per-epoch.
    double hit_rate = 0.0;
    double pruned_fraction = 0.0;
    const auto backend = engine.current_backend();
    if (backend != nullptr) {
      if (r.decision == ReclusterDecision::kAdopt ||
          r.decision == ReclusterDecision::kInitialAdopt) {
        cache.Clear();
      } else {
        cache.ResetStats();
      }
      const uint64_t replay_start = now_ns();
      ReplayWorkload(*backend, mu.value(), queries, &cache, &rng);
      record(RequestVerb::kQuery, replay_start, StatusCode::kOk);
      hit_rate = cache.HitRate();

      // Zone-map pruning power under this epoch's own workload: the
      // fraction of the partition directory a query sample skips. A
      // dedicated rng keeps the replay stream identical across backends.
      if (backend->num_partitions() > 0) {
        Rng prune_rng(seed + static_cast<uint64_t>(e) * 0x9e3779b9ULL);
        const StarSchema& schema = backend->linearization().schema();
        uint64_t scanned = 0, pruned = 0;
        for (int q = 0; q < 64; ++q) {
          const QueryClass cls = mu.value().Sample(&prune_rng);
          const GridQuery query = SampleQuery(schema, cls, &prune_rng);
          const PruneStats stats = backend->PruneBox(BoxOf(schema, query));
          scanned += stats.scanned;
          pruned += stats.pruned;
        }
        pruned_fraction = scanned + pruned == 0
                              ? 0.0
                              : static_cast<double>(pruned) /
                                    static_cast<double>(scanned + pruned);
      }
    }

    table.AddRow({std::to_string(r.epoch), FormatDouble(r.drift, 4),
                  ReclusterDecisionName(r.decision),
                  engine.current() != nullptr ? engine.current()->name() : "-",
                  FormatDouble(r.proposed_cost, 3),
                  std::to_string(r.cost_evaluations),
                  std::to_string(r.cost_cache_hits),
                  std::to_string(r.movement.pages_moved()),
                  FormatDouble(100.0 * hit_rate, 1),
                  FormatDouble(100.0 * pruned_fraction, 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  const ClassCostCache::Stats cost_stats = engine.state().cost_cache.stats();
  const DpCache::Stats dp_stats = engine.state().dp_cache.stats();
  std::printf(
      "epochs %llu, adoptions %llu; per-class cost evaluations %llu, "
      "avoided by cache %llu; DP solves %llu, DP cache hits %llu\n",
      static_cast<unsigned long long>(engine.epochs_seen()),
      static_cast<unsigned long long>(engine.adoptions()),
      static_cast<unsigned long long>(cost_stats.misses),
      static_cast<unsigned long long>(cost_stats.hits),
      static_cast<unsigned long long>(dp_stats.misses),
      static_cast<unsigned long long>(dp_stats.hits));
  std::printf("\n%s\n", metrics.Snapshot().ToTable().c_str());

  if (!telemetry_path.empty()) {
    TelemetrySnapshot snap;
    snap.now_ns = now_ns();
    snap.recorder_capacity = recorder.capacity();
    snap.recorder_recorded = recorder.recorded();
    snap.requests = recorder.Snapshot();
    TenantTelemetry trace;
    trace.name = "trace";
    trace.slo = slo.Snap();
    snap.tenants.push_back(std::move(trace));
    snap.audit = audit.Snapshot();
    const Status written =
        WriteStringToFile(telemetry_path, snap.ToJson(/*pretty=*/true));
    if (!written.ok()) return Fail(written);
    std::printf("wrote %s (%zu requests, %zu audit entries)\n",
                telemetry_path.c_str(), snap.requests.size(),
                snap.audit.size());
  }
  return 0;
}

}  // namespace snakes
