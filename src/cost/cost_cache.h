#ifndef SNAKES_COST_COST_CACHE_H_
#define SNAKES_COST_COST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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

  /// Per-strategy memo: fragments/queries per dense lattice index, with a
  /// validity mask (a class is present once costed).
  struct StrategyCosts {
    std::vector<uint64_t> fragments;
    std::vector<uint64_t> queries;
    std::vector<char> known;
  };

  ClassCostCache() = default;

  /// The memo for `name`, created empty (sized `num_classes`) on first use.
  /// The returned pointer is stable for the cache's lifetime.
  StrategyCosts* Strategy(const std::string& name, uint64_t num_classes);

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
  std::unordered_map<std::string, StrategyCosts> strategies_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// MeasureExpectedCost through the memo: bit-identical to
/// MeasureExpectedCost(mu, lin, obs, mode) on every input, but per-class
/// fragment counts are computed at most once per cache lifetime. Classes
/// with zero probability are neither computed nor charged. `cache` must not
/// be null; pass the same instance across epochs to amortize. `arena`
/// (optional) is per-thread reusable run storage for cache-miss fills —
/// identical fragment integers either way.
double MeasureExpectedCostCached(const Workload& mu, const Linearization& lin,
                                 ClassCostCache* cache, const ObsSink& obs = {},
                                 CostEvalMode mode = CostEvalMode::kAuto,
                                 RunArena* arena = nullptr);

}  // namespace snakes

#endif  // SNAKES_COST_COST_CACHE_H_
