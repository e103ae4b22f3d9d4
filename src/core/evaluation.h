#ifndef SNAKES_CORE_EVALUATION_H_
#define SNAKES_CORE_EVALUATION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "cost/cost_model.h"
#include "cost/workload_cost.h"
#include "lattice/workload.h"
#include "obs/obs.h"
#include "path/dpkd.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "util/result.h"

namespace snakes {

class ClassCostCache;  // cost/cost_cache.h
class DpCache;         // path/dp_cache.h

/// What to evaluate and how — the explicit replacement for the old
/// AdvisorOptions flag set. A request names strategy *families* from a
/// registry instead of toggling booleans, so new families need no new flags:
///
///   EvaluationRequest request{mu};
///   request.strategies = {"lattice-paths", "hilbert"};  // empty = all
///   request.num_threads = 4;                            // 0 = hardware
///   auto plan = advisor.Plan(request);                  // inspectable
///   auto rec = advisor.Evaluate(*plan);                 // or Advise(request)
struct EvaluationRequest {
  explicit EvaluationRequest(Workload mu) : workload(std::move(mu)) {}

  /// The expected workload; its lattice must match the advisor's schema.
  Workload workload;
  /// Factory names to evaluate (see StrategyRegistry). Empty = every
  /// registered family. Unknown names fail Plan with InvalidArgument;
  /// inapplicable families are planned as skipped, not errors.
  std::vector<std::string> strategies;
  /// Worker threads for the evaluation engine: 0 = hardware concurrency,
  /// 1 = serial. Results are identical at any thread count.
  int num_threads = 0;
  /// Also pack `facts` under every strategy and report measured I/O.
  bool measure_storage = false;
  StorageConfig storage;
  /// Storage representation measured strategies are packed into. Measured
  /// QueryIo is bit-identical across backends (zone-map pruning is
  /// conservative); the knob selects what pruning/movement structure the
  /// downstream recluster and serving layers inherit.
  StorageBackendKind backend = StorageBackendKind::kPacked;
  std::shared_ptr<const FactTable> facts;
  /// The factory registry to plan from; nullptr = StrategyRegistry::BuiltIns().
  const StrategyRegistry* registry = nullptr;
  /// How Evaluate measures expected cost: interval-based rank-run counting
  /// or the edge-histogram cell walk. kAuto picks per strategy/workload;
  /// both give bit-identical costs.
  CostEvalMode cost_mode = CostEvalMode::kAuto;
  /// Optional observability backends (obs/metrics.h, obs/trace.h). Both
  /// default to nullptr — the null object — so uninstrumented callers pay
  /// one pointer test per instrumentation site. When set, the advisor, the
  /// DP solvers and the storage simulator record counters, histograms and
  /// nested spans (request -> strategy -> DP phase -> storage I/O) into
  /// them; the recommendation itself is bit-identical either way. The
  /// caller keeps ownership and must outlive Plan/Evaluate.
  ObsSink obs;
  /// Time model pricing each strategy's expected_ms (cost/cost_model.h).
  /// Null selects the analytic default (the seed's disk constants).
  /// The model never affects ranking or expected_cost — those stay the
  /// model-independent seek surrogate — only the ms conversion at the edge,
  /// so cached per-class integers are shared across models.
  std::shared_ptr<const CostModel> cost_model;
  /// Optional memo of per-class strategy costs (cost/cost_cache.h). When
  /// set, Evaluate scores candidates through the cache: classes already
  /// costed in a previous advise are not re-measured, and the result is
  /// bit-identical to the uncached evaluation. Caller owns; must outlive
  /// Evaluate. AdviseIncremental wires this from its state automatically.
  ClassCostCache* cost_cache = nullptr;
  /// Optional memo of the two path DPs (path/dp_cache.h). When set, Plan
  /// reuses DP solutions for bit-identical workloads instead of re-solving.
  DpCache* dp_cache = nullptr;
};

/// One concrete candidate the plan will score.
struct PlannedStrategy {
  /// Name of the factory family that produced it.
  std::string factory;
  std::shared_ptr<const Linearization> linearization;
};

/// A factory the planner consulted but could not apply to the schema.
struct SkippedStrategy {
  std::string factory;
  Status reason;
};

/// The resolved middle stage of the request -> registry -> plan pipeline:
/// the DP solutions plus every concrete candidate, ready for the parallel
/// scoring pass. Produced by ClusteringAdvisor::Plan, consumed by Evaluate;
/// self-contained (owns copies/refs of everything scoring needs).
struct EvaluationPlan {
  Workload workload;
  /// Section-4 optimal lattice path and the Corollary-1 snaked optimum.
  OptimalPathResult optimal_path;
  OptimalPathResult optimal_snaked_path;
  /// cost_mu of snaking optimal_path (the paper's recipe).
  double snaked_cost_of_optimal = 0.0;
  /// Candidates in canonical order (registration order within each family);
  /// this order is the tie-break among equal-cost strategies.
  std::vector<PlannedStrategy> strategies;
  std::vector<SkippedStrategy> skipped;
  int num_threads = 0;
  bool measure_storage = false;
  StorageConfig storage;
  StorageBackendKind backend = StorageBackendKind::kPacked;
  std::shared_ptr<const FactTable> facts;
  /// Copied from the request; consulted by Evaluate's scoring tasks.
  ObsSink obs;
  CostEvalMode cost_mode = CostEvalMode::kAuto;
  /// Carried over from the request; null = analytic default.
  std::shared_ptr<const CostModel> cost_model;
  /// Carried over from the request; consulted by Evaluate when non-null.
  ClassCostCache* cost_cache = nullptr;

  /// Human-readable plan summary (candidates and skip reasons).
  std::string ToString() const;
};

}  // namespace snakes

#endif  // SNAKES_CORE_EVALUATION_H_
