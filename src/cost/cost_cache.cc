#include "cost/cost_cache.h"

#include "cost/edge_model.h"
#include "curves/rank_run.h"
#include "lattice/grid_query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fraction.h"
#include "util/logging.h"

namespace snakes {

ClassCostCache::StrategyCosts* ClassCostCache::Strategy(
    const std::string& name, uint64_t num_classes) {
  std::lock_guard<std::mutex> lock(mu_);
  StrategyCosts& entry = strategies_[name];
  if (entry.known.empty()) {
    entry.fragments.assign(num_classes, 0);
    entry.queries.assign(num_classes, 1);
    entry.known.assign(num_classes, 0);
  }
  SNAKES_CHECK(entry.known.size() == num_classes)
      << "strategy '" << name << "' cached over a different lattice ("
      << entry.known.size() << " classes, now " << num_classes << ")";
  return &entry;
}

uint64_t ClassCostCache::NumStrategies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strategies_.size();
}

void ClassCostCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  strategies_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

double MeasureExpectedCostCached(const Workload& mu, const Linearization& lin,
                                 ClassCostCache* cache, const ObsSink& obs,
                                 CostEvalMode mode, RunArena* arena) {
  SNAKES_CHECK(cache != nullptr)
      << "MeasureExpectedCostCached requires a cache";
  ScopedSpan span(obs.tracer, "cost/measure_cached", "cost");
  span.AddArg("strategy", lin.name());
  const QueryClassLattice& lat = mu.lattice();
  const StarSchema& schema = lin.schema();
  ClassCostCache::StrategyCosts* entry =
      cache->Strategy(lin.name(), lat.size());

  // Which non-zero classes still need their fragment counts measured?
  uint64_t hits = 0;
  std::vector<uint64_t> missing;
  for (uint64_t i = 0; i < lat.size(); ++i) {
    if (mu.probability_at(i) == 0.0) continue;
    if (entry->known[i]) {
      ++hits;
    } else {
      missing.push_back(i);
    }
  }

  if (!missing.empty()) {
    // Fill them the same way MeasureExpectedCost would: per-class run
    // counting when the strategy decomposes (identical integers to
    // RunCountClassCosts), otherwise one edge-walk histogram pass, which
    // costs every class at once — so fill the whole table. Both produce
    // the exact fragment/query integers, so later summations are
    // bit-identical no matter which path filled an entry.
    const bool per_class_runs =
        lin.HasRunDecomposition() && mode != CostEvalMode::kEdgeWalk;
    if (per_class_runs) {
      RunArena local;
      RunArena* fill_arena = arena != nullptr ? arena : &local;
      uint64_t total_runs = 0;
      for (const uint64_t i : missing) {
        const QueryClass cls = lat.ClassAt(i);
        const uint64_t num_queries = NumQueriesInClass(schema, cls);
        uint64_t class_fragments;
        if (lin.ClassRunsDegenerate(cls)) {
          // One cell per run over a grid-tiling class: the closed form.
          class_fragments = lin.num_cells();
        } else {
          lin.AppendClassRuns(cls, fill_arena);
          class_fragments = fill_arena->num_runs();
        }
        entry->fragments[i] = class_fragments;
        entry->queries[i] = num_queries;
        entry->known[i] = 1;
        total_runs += class_fragments;
      }
      if (obs.metrics != nullptr) {
        obs.metrics->GetCounter("curves.runs_emitted")->Inc(total_runs);
      }
    } else {
      const ClassCostTable table = MeasureClassCosts(lin);
      for (uint64_t j = 0; j < lat.size(); ++j) {
        if (entry->known[j]) continue;
        const QueryClass cls = lat.ClassAt(j);
        entry->fragments[j] = table.TotalFragments(cls);
        entry->queries[j] = table.NumQueries(cls);
        entry->known[j] = 1;
      }
      if (obs.metrics != nullptr) {
        obs.metrics->GetCounter("cost.cells_scanned")->Inc(lin.num_cells());
      }
    }
  }
  cache->RecordHits(hits);
  cache->RecordMisses(missing.size());
  if (obs.metrics != nullptr) {
    obs.metrics->GetCounter("cost.cache_hits")->Inc(hits);
    obs.metrics->GetCounter("cost.cache_misses")->Inc(missing.size());
  }
  span.AddArg("cache_hits", hits);
  span.AddArg("cache_misses", static_cast<uint64_t>(missing.size()));

  // The exact summation of ExpectedCost: index order, zero classes skipped,
  // the same Fraction-to-double conversion ClassCostTable::AvgDouble does.
  double total = 0.0;
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * Fraction(entry->fragments[i], entry->queries[i]).ToDouble();
  }
  return total;
}

}  // namespace snakes
