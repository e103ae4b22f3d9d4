#ifndef SNAKES_COST_WORKLOAD_COST_H_
#define SNAKES_COST_WORKLOAD_COST_H_

#include <cstdint>
#include <vector>

#include "cost/class_cost.h"
#include "cost/edge_model.h"
#include "curves/run_arena.h"
#include "lattice/workload.h"
#include "obs/obs.h"
#include "path/lattice_path.h"

namespace snakes {

/// cost_mu(S) (Section 4): the expected per-query seek cost of a strategy
/// whose per-class average costs are tabulated in `costs`, under workload mu.
double ExpectedCost(const Workload& mu, const ClassCostTable& costs);

/// Analytic cost_mu(P) for an unsnaked lattice path on the lattice cost
/// model: sum_u p_u * dist_P(u). This is the objective the Figure-4 DP
/// minimizes; exact for uniform hierarchies and defined for fractional
/// average fanouts.
double ExpectedPathCost(const Workload& mu, const LatticePath& path);

/// Analytic cost_mu of the snaked version of `path` on the lattice model.
double ExpectedSnakedPathCost(const Workload& mu, const LatticePath& path);

/// How MeasureExpectedCost evaluates a strategy.
enum class CostEvalMode {
  /// Rank runs when the strategy decomposes and the classes being measured
  /// hold no more queries than the grid holds cells; edge walk otherwise.
  /// The break-even is simple: the edge walk always costs O(cells * levels)
  /// and measures every class at once, the run path costs O(sum over the
  /// measured queries of runs).
  kAuto,
  /// Always the seed's edge-histogram walk, O(cells * levels).
  kEdgeWalk,
  /// Always per-query rank-run counting (correct for any strategy; only
  /// fast for ones with HasRunDecomposition()).
  kRankRuns,
};

/// Exact per-class integers of one strategy, dense over the lattice: the
/// summed fragment count and the query count of each class, valid where
/// `known` is set. What FillClassCosts fills and ClassCostCache memoizes.
struct ClassCosts {
  explicit ClassCosts(uint64_t num_classes = 0)
      : fragments(num_classes, 0),
        queries(num_classes, 1),
        known(num_classes, 0) {}

  std::vector<uint64_t> fragments;
  std::vector<uint64_t> queries;
  std::vector<char> known;
};

/// The class-cost producer behind MeasureExpectedCost and
/// MeasureExpectedCostCached: measures the classes `wanted` (dense indices
/// into `lat`, not yet known in `costs`) of `lin` exactly and marks them
/// known. `mode` picks the pass (see CostEvalMode; kAuto sums the queries of
/// `wanted` only). The edge walk costs every class at once, so it fills
/// every unknown class, not just `wanted`. The run path counts each wanted
/// class's rank runs in count-only emission: `arena` (optional, one per
/// thread) keeps O(queries) state and stores no run list. Both passes give
/// the same integers. Returns true when runs were counted. `obs` counts
/// cost.cells_scanned (edge walk) or curves.runs_emitted and
/// curves.cells_per_run (run path; degenerate classes take their
/// closed-form fragment count num_cells() and skip the histogram).
bool FillClassCosts(const Linearization& lin, const QueryClassLattice& lat,
                    const std::vector<uint64_t>& wanted, const ObsSink& obs,
                    CostEvalMode mode, RunArena* arena, ClassCosts* costs);

/// cost_mu over filled per-class integers: the ExpectedCost summation (index
/// order, zero classes skipped, the exact fraction of each class rounded to
/// double once), so it matches ExpectedCost over an equal ClassCostTable bit
/// for bit.
double ExpectedCost(const Workload& mu, const ClassCosts& costs);

/// Expected cost of an arbitrary linearization under `mu`, measured exactly:
/// FillClassCosts over the workload's non-zero classes, then ExpectedCost.
/// Every mode gives bit-identical results: a query's fragment count *is* its
/// rank-run count. `obs` (optional) wraps the measurement in a
/// "cost/measure" span and counts what FillClassCosts counts. `arena`
/// (optional) is reused counting state for the run path — identical
/// results, fewer allocations; pass one per thread.
double MeasureExpectedCost(const Workload& mu, const Linearization& lin,
                           const ObsSink& obs = {},
                           CostEvalMode mode = CostEvalMode::kAuto,
                           RunArena* arena = nullptr);

}  // namespace snakes

#endif  // SNAKES_COST_WORKLOAD_COST_H_
