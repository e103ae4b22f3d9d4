#include "cost/cost_cache.h"

#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace snakes {

ClassCosts* ClassCostCache::Strategy(const std::string& name,
                                     uint64_t num_classes) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassCosts& entry = strategies_[name];
  if (entry.known.empty()) entry = ClassCosts(num_classes);
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
  ClassCosts* entry = cache->Strategy(lin.name(), lat.size());

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
    const bool runs =
        FillClassCosts(lin, lat, missing, obs, mode, arena, entry);
    span.AddArg("mode", runs ? "rank-runs" : "edge-walk");
  }
  cache->RecordHits(hits);
  cache->RecordMisses(missing.size());
  if (obs.metrics != nullptr) {
    obs.metrics->GetCounter("cost.cache_hits")->Inc(hits);
    obs.metrics->GetCounter("cost.cache_misses")->Inc(missing.size());
  }
  span.AddArg("cache_hits", hits);
  span.AddArg("cache_misses", static_cast<uint64_t>(missing.size()));
  return ExpectedCost(mu, *entry);
}

}  // namespace snakes
