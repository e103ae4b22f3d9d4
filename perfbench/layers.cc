// Traced decompositions of an advise and a relayout, and the per-layer
// metric record.

#include <memory>

#include "common.h"
#include "core/advisor.h"
#include "cost/cost_cache.h"
#include "cost/workload_cost.h"
#include "curves/run_arena.h"
#include "path/dpkd.h"
#include "path/snaked_dp.h"
#include "recluster/movement.h"

namespace perfbench {

using snakes::ClassCostCache;
using snakes::ClusteringAdvisor;
using snakes::EvaluationPlan;
using snakes::EvaluationRequest;
using snakes::Linearization;
using snakes::Result;
using snakes::RunArena;
using snakes::StorageBackend;
using snakes::Workload;

namespace {

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

}  // namespace

void AdviseLayers::Merge(const AdviseLayers& o) {
  Append(&dp_ms, o.dp_ms);
  Append(&plan_ms, o.plan_ms);
  Append(&evaluate_ms, o.evaluate_ms);
  Append(&fill_ms, o.fill_ms);
  Append(&fill_cached_ms, o.fill_cached_ms);
  Append(&class_runs_ms, o.class_runs_ms);
  Append(&evaluations, o.evaluations);
}

double TraceAdviseLayers(
    SpanLog* log, uint64_t parent,
    const std::shared_ptr<const snakes::StarSchema>& schema,
    const Workload& mu, const snakes::ObsSink& obs, AdviseLayers* out,
    RunResult* result) {
  bool ok = true;
  const double dp_us = log->Time(parent, "path.FindOptimalLatticePath", [&] {
    ok = snakes::FindOptimalLatticePath(mu, nullptr, obs).ok() && ok;
  }) + log->Time(parent, "path.FindOptimalSnakedLatticePath", [&] {
    ok = snakes::FindOptimalSnakedLatticePath(mu, obs).ok() && ok;
  });

  // The service advises serially on its own thread with every registered
  // strategy family; the decomposition does the same.
  const ClusteringAdvisor advisor(schema);
  EvaluationRequest request{mu};
  request.num_threads = 1;
  request.obs = obs;
  Result<EvaluationPlan> plan = snakes::Status::Internal("not planned");
  const double plan_us = log->Time(parent, "core.Plan",
                                   [&] { plan = advisor.Plan(request); });
  if (!plan.ok()) {
    result->Fail("Plan: " + plan.status().ToString());
    return 0.0;
  }
  const double evaluate_us = log->Time(parent, "core.Evaluate", [&] {
    ok = advisor.Evaluate(plan.value()).ok() && ok;
  });

  // One fresh run arena per strategy, as Evaluate's scoring tasks use.
  const double fill_us = log->Time(parent, "cost.MeasureExpectedCost", [&] {
    for (const snakes::PlannedStrategy& s : plan.value().strategies) {
      RunArena arena;
      (void)snakes::MeasureExpectedCost(mu, *s.linearization, obs,
                                        request.cost_mode, &arena);
    }
  });
  ClassCostCache cache;
  const double fill_cached_us =
      log->Time(parent, "cost.MeasureExpectedCostCached", [&] {
        for (const snakes::PlannedStrategy& s : plan.value().strategies) {
          RunArena arena;
          (void)snakes::MeasureExpectedCostCached(
              mu, *s.linearization, &cache, obs, request.cost_mode, &arena);
        }
      });
  const snakes::QueryClassLattice& lattice = mu.lattice();
  const double class_runs_us =
      log->Time(parent, "curves.AppendClassRuns", [&] {
        for (const snakes::PlannedStrategy& s : plan.value().strategies) {
          RunArena arena;
          for (uint64_t i = 0; i < lattice.size(); ++i) {
            s.linearization->AppendClassRuns(lattice.ClassAt(i), &arena);
          }
        }
      });
  if (!ok) result->Fail("a path DP or Evaluate failed while tracing");

  out->dp_ms.push_back(dp_us / 1e3);
  out->plan_ms.push_back(plan_us / 1e3);
  out->evaluate_ms.push_back(evaluate_us / 1e3);
  out->fill_ms.push_back(fill_us / 1e3);
  out->fill_cached_ms.push_back(fill_cached_us / 1e3);
  out->class_runs_ms.push_back(class_runs_us / 1e3);
  out->evaluations.push_back(static_cast<double>(cache.stats().misses));
  return plan_us + fill_cached_us;
}

void TraceRelayoutLayers(SpanLog* log, uint64_t parent,
                         snakes::StorageBackendKind kind,
                         std::shared_ptr<const Linearization> from,
                         std::shared_ptr<const Linearization> to,
                         std::shared_ptr<const snakes::FactTable> facts,
                         RelayoutLayers* out, RunResult* result) {
  std::shared_ptr<const StorageBackend> current;
  std::shared_ptr<const StorageBackend> proposed;
  const auto pack = [&](std::shared_ptr<const Linearization> lin,
                        std::shared_ptr<const StorageBackend>* backend) {
    const double us = log->Time(parent, "storage.MakeStorageBackend", [&] {
      auto made = snakes::MakeStorageBackend(kind, std::move(lin), facts);
      if (made.ok()) *backend = made.value();
    });
    out->pack_ms.push_back(us / 1e3);
  };
  pack(std::move(from), &current);
  pack(std::move(to), &proposed);
  if (current == nullptr || proposed == nullptr) {
    result->Fail("MakeStorageBackend failed while tracing");
    return;
  }
  Result<snakes::MovementCost> movement =
      snakes::Status::Internal("not priced");
  const double us = log->Time(parent, "recluster.ComputeMovementCost", [&] {
    movement = snakes::ComputeMovementCost(*current, *proposed);
  });
  if (!movement.ok()) {
    result->Fail("ComputeMovementCost: " + movement.status().ToString());
    return;
  }
  out->movement_ms.push_back(us / 1e3);
  out->pages_moved.push_back(
      static_cast<double>(movement.value().pages_moved()));
}

void PerLayer::SetReads(const ReadLayers& reads) {
  query_overhead_us = Median(reads.query_overhead_us);
  pin_epoch_us = Median(reads.pin_us);
  aggregate_us = Median(reads.aggregate_us);
  measure_us = Median(reads.measure_us);
  append_runs_us = Median(reads.append_runs_us);
  const double n = reads.reads == 0 ? 1.0 : static_cast<double>(reads.reads);
  cells_per_query = reads.cells / n;
  runs_per_query = reads.runs / n;
  prune_frac = reads.partitions == 0
                   ? 0.0
                   : static_cast<double>(reads.pruned) /
                         static_cast<double>(reads.partitions);
}

void PerLayer::SetAdvise(const AdviseLayers& advise) {
  dp_ms = Median(advise.dp_ms);
  plan_ms = Median(advise.plan_ms);
  evaluate_ms = Median(advise.evaluate_ms);
  fill_ms = Median(advise.fill_ms);
  fill_cached_ms = Median(advise.fill_cached_ms);
  class_runs_ms = Median(advise.class_runs_ms);
  evaluations = Mean(advise.evaluations);
}

void PerLayer::SetRelayout(const RelayoutLayers& relayout) {
  pack_ms = Median(relayout.pack_ms);
  movement_ms = Median(relayout.movement_ms);
  pages_moved = Mean(relayout.pages_moved);
}

void PerLayer::SetCacheHitRatio(const snakes::MetricsRegistry& metrics) {
  const snakes::MetricsSnapshot snapshot = metrics.Snapshot();
  const double hits = static_cast<double>(
      snapshot.counter("advisor.incremental_cost_hits"));
  const double evals = static_cast<double>(
      snapshot.counter("advisor.incremental_cost_evaluations"));
  cache_hit_ratio = hits + evals == 0.0 ? 0.0 : hits / (hits + evals);
}

void PerLayer::Emit(RunResult* r) const {
  r->Add("service.query_overhead_us", query_overhead_us, "us");
  r->Add("service.pin_epoch_us", pin_epoch_us, "us");
  r->Add("storage.aggregate_us", aggregate_us, "us");
  r->Add("storage.measure_us", measure_us, "us");
  r->Add("storage.cells_per_query", cells_per_query, "count");
  r->Add("storage.prune_frac", prune_frac, "ratio");
  r->Add("storage.pack_ms", pack_ms, "ms");
  r->Add("curves.append_runs_us", append_runs_us, "us");
  r->Add("curves.runs_per_query", runs_per_query, "count");
  r->Add("curves.class_runs_ms", class_runs_ms, "ms");
  r->Add("path.dp_ms", dp_ms, "ms");
  r->Add("core.plan_ms", plan_ms, "ms");
  r->Add("core.evaluate_ms", evaluate_ms, "ms");
  r->Add("cost.fill_ms", fill_ms, "ms");
  r->Add("cost.fill_cached_ms", fill_cached_ms, "ms");
  r->Add("cost.evaluations", evaluations, "count");
  r->Add("cost.cache_hit_ratio", cache_hit_ratio, "ratio");
  r->Add("recluster.movement_ms", movement_ms, "ms");
  r->Add("recluster.pages_moved", pages_moved, "count");
  r->Add("recluster.adopt_ratio", adopt_ratio, "ratio");
  r->Add("tpcd.dbgen_ms", dbgen_ms, "ms");
  r->Add("trace.overhead_pct", overhead_pct, "%");
  r->Add("trace.coverage_pct", coverage_pct, "%");
}

}  // namespace perfbench
