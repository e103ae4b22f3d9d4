#ifndef SNAKES_COST_COST_CACHE_H_
#define SNAKES_COST_COST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cost/workload_cost.h"
#include "curves/linearization.h"
#include "lattice/workload.h"
#include "obs/obs.h"

namespace snakes {

/// Memoized per-class strategy costs — the expensive half of re-advising.
///
/// A strategy's per-class average cost (fragments over queries) depends only
/// on the strategy and the schema, never on the workload; what the workload
/// changes is how the per-class averages are *weighted*. So across workload
/// epochs the fragment counts can be cached per (strategy, class) and a
/// re-advise only pays for classes it has never costed before — the
/// O(sum over queries of runs) or O(cells * levels) measurement work — while
/// the O(|L|) weighted summation is recomputed exactly every time, keeping
/// results bit-identical to an uncached evaluation.
///
/// Entries are exact integers (TotalFragments / NumQueries, the same values
/// ClassCostTable stores), so a cache hit reproduces the uncached AvgDouble
/// bit for bit regardless of which evaluation mode originally filled it
/// (run counting and the edge walk agree exactly; see tests/rank_run_test).
///
/// Thread-safety: the strategy map is mutex-guarded and the counters are
/// atomic, so concurrent Evaluate tasks may fill *different* strategies'
/// entries in parallel (the advisor's one-task-per-strategy decomposition).
/// Concurrent calls for the same strategy are not supported.
class ClassCostCache {
 public:
  /// Cumulative hit/miss counts. A miss is one per-class cost evaluation —
  /// the unit the bench/micro_incremental_advise guard counts.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  ClassCostCache() = default;

  /// The memo for `name` (a class is present once `known`), created empty
  /// (sized `num_classes`) on first use. The returned pointer is stable for
  /// the cache's lifetime.
  ClassCosts* Strategy(const std::string& name, uint64_t num_classes);

  /// Number of distinct strategies with at least one costed class.
  uint64_t NumStrategies() const;

  Stats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

  void RecordHits(uint64_t n) { hits_.fetch_add(n, std::memory_order_relaxed); }
  void RecordMisses(uint64_t n) {
    misses_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Drops every memo and zeroes the counters.
  void Clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, ClassCosts> strategies_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// MeasureExpectedCost through the memo: bit-identical to
/// MeasureExpectedCost(mu, lin, obs, mode) on every input, but per-class
/// fragment counts are computed at most once per cache lifetime. The
/// non-zero classes the memo lacks go to FillClassCosts in one call, so the
/// auto-mode break-even weighs only what is missing; classes with zero
/// probability are never charged. `cache` must not be null; pass the same
/// instance across epochs to amortize. `arena` (optional) is per-thread
/// reusable counting state for the fill — identical integers either way.
double MeasureExpectedCostCached(const Workload& mu, const Linearization& lin,
                                 ClassCostCache* cache, const ObsSink& obs = {},
                                 CostEvalMode mode = CostEvalMode::kAuto,
                                 RunArena* arena = nullptr);

}  // namespace snakes

#endif  // SNAKES_COST_COST_CACHE_H_
