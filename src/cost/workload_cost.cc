#include "cost/workload_cost.h"

#include "lattice/grid_query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fraction.h"
#include "util/logging.h"

namespace snakes {

double ExpectedCost(const Workload& mu, const ClassCostTable& costs) {
  SNAKES_CHECK(mu.lattice() == costs.lattice())
      << "workload and cost table built over different lattices";
  double total = 0.0;
  for (uint64_t i = 0; i < mu.lattice().size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * costs.AvgDouble(mu.lattice().ClassAt(i));
  }
  return total;
}

double ExpectedPathCost(const Workload& mu, const LatticePath& path) {
  SNAKES_CHECK(mu.lattice() == path.lattice())
      << "workload and path built over different lattices";
  double total = 0.0;
  for (uint64_t i = 0; i < mu.lattice().size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * DistToPath(path, mu.lattice().ClassAt(i));
  }
  return total;
}

double ExpectedSnakedPathCost(const Workload& mu, const LatticePath& path) {
  SNAKES_CHECK(mu.lattice() == path.lattice())
      << "workload and path built over different lattices";
  double total = 0.0;
  for (uint64_t i = 0; i < mu.lattice().size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * DistToSnakedPath(path, mu.lattice().ClassAt(i));
  }
  return total;
}

double ExpectedCost(const Workload& mu, const ClassCosts& costs) {
  double total = 0.0;
  for (uint64_t i = 0; i < mu.lattice().size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    SNAKES_DCHECK(costs.known[i]);
    total += p * Fraction(costs.fragments[i], costs.queries[i]).ToDouble();
  }
  return total;
}

namespace {

/// Total queries across `classes`, saturating just past `cap` (the auto-mode
/// break-even needs no exact count beyond it).
uint64_t QueriesIn(const QueryClassLattice& lat, const StarSchema& schema,
                   const std::vector<uint64_t>& classes, uint64_t cap) {
  uint64_t total = 0;
  for (const uint64_t i : classes) {
    total += NumQueriesInClass(schema, lat.ClassAt(i));
    if (total > cap) return total;
  }
  return total;
}

}  // namespace

bool FillClassCosts(const Linearization& lin, const QueryClassLattice& lat,
                    const std::vector<uint64_t>& wanted, const ObsSink& obs,
                    CostEvalMode mode, RunArena* arena, ClassCosts* costs) {
  const StarSchema& schema = lin.schema();
  SNAKES_CHECK(lat == QueryClassLattice(schema))
      << "workload and strategy built over different lattices";
  SNAKES_CHECK(costs->known.size() == lat.size());
  const uint64_t cells = lin.num_cells();
  const bool use_runs =
      mode == CostEvalMode::kRankRuns ||
      (mode == CostEvalMode::kAuto && lin.HasRunDecomposition() &&
       QueriesIn(lat, schema, wanted, cells) <= cells);

  if (!use_runs) {
    const ClassCostTable table = MeasureClassCosts(lin);
    for (uint64_t i = 0; i < lat.size(); ++i) {
      if (costs->known[i]) continue;
      const QueryClass cls = lat.ClassAt(i);
      costs->fragments[i] = table.TotalFragments(cls);
      costs->queries[i] = table.NumQueries(cls);
      costs->known[i] = 1;
    }
    if (obs.metrics != nullptr) {
      obs.metrics->GetCounter("cost.cells_scanned")->Inc(cells);
    }
    return false;
  }

  // A query's fragment count is its rank-run count, so summing run counts
  // over a class reproduces the edge model's TotalFragments exactly. Only
  // the counts are needed: the arena keeps each query's open run, not a
  // run list.
  RunArena local;
  RunArena* counter = arena != nullptr ? arena : &local;
  counter->SetCountOnly(
      true, obs.metrics != nullptr
                ? obs.metrics->GetHistogram("curves.cells_per_run")
                : nullptr);
  uint64_t total_runs = 0;
  for (const uint64_t i : wanted) {
    const QueryClass cls = lat.ClassAt(i);
    uint64_t class_fragments;
    if (lin.ClassRunsDegenerate(cls)) {
      // Every run is one cell and the class's queries tile the grid, so the
      // fragment total is num_cells() — no need to emit anything.
      class_fragments = cells;
    } else {
      lin.AppendClassRuns(cls, counter);
      counter->EndClass();
      class_fragments = counter->num_runs();
    }
    costs->fragments[i] = class_fragments;
    costs->queries[i] = NumQueriesInClass(schema, cls);
    costs->known[i] = 1;
    total_runs += class_fragments;
  }
  counter->SetCountOnly(false);
  if (obs.metrics != nullptr) {
    obs.metrics->GetCounter("curves.runs_emitted")->Inc(total_runs);
  }
  return true;
}

double MeasureExpectedCost(const Workload& mu, const Linearization& lin,
                           const ObsSink& obs, CostEvalMode mode,
                           RunArena* arena) {
  ScopedSpan span(obs.tracer, "cost/measure", "cost");
  span.AddArg("strategy", lin.name());
  const QueryClassLattice& lat = mu.lattice();
  std::vector<uint64_t> wanted;
  for (uint64_t i = 0; i < lat.size(); ++i) {
    if (mu.probability_at(i) != 0.0) wanted.push_back(i);
  }
  ClassCosts costs(lat.size());
  const bool runs = FillClassCosts(lin, lat, wanted, obs, mode, arena, &costs);
  span.AddArg("mode", runs ? "rank-runs" : "edge-walk");
  return ExpectedCost(mu, costs);
}

}  // namespace snakes
