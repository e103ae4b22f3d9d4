// Pieces the three workloads share: seeded set-up of a TPC-D tenant, the
// fixed probe that prices the served layout, the closed-loop reader, and the
// traced decompositions of a read, an advise and a relayout into the public
// calls of each layer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "layer_trace.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "storage/backend.h"
#include "storage/executor.h"
#include "storage/fact_table.h"
#include "storage/query_engine.h"

namespace perfbench {

constexpr int kClients = 2;
/// Set-ups per run; setup_s is their median (the first set-up of a process
/// runs cold and is often the slowest).
constexpr int kSetups = 7;
/// Fixed seeded queries behind seeks_per_query and norm_blocks.
constexpr int kProbeQueries = 1000;
/// Spans kept per thread log (later requests are timed, not kept).
constexpr uint64_t kKeptRequests = 48;

/// Independent stream `stream` of the run seed (SplitMix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

bool SameBits(double a, double b);
bool SameIo(const snakes::QueryIo& a, const snakes::QueryIo& b);
bool SameAnswer(const snakes::QueryAnswer& a, const snakes::QueryAnswer& b);

/// Section-6 workload `id` (1..27) of the default TPC-D lattice.
snakes::Workload TpcdWorkload(const snakes::StarSchema& schema, int id);

/// One generated warehouse served by its own service: dbgen, service
/// construction and tenant registration are the set-up.
struct TpcdTenant {
  std::shared_ptr<const snakes::StarSchema> schema;
  std::shared_ptr<const snakes::FactTable> facts;
  /// Attached in traced runs only; declared before the service so it
  /// outlives it.
  std::unique_ptr<snakes::MetricsRegistry> metrics;
  std::unique_ptr<snakes::AdvisorService> service;
  snakes::TenantId id = 0;
  double dbgen_ms = 0.0;
  double setup_s = 0.0;
};

/// Generates the TPC-D warehouse from the run seed and registers it as one
/// tenant under Section-6 workload 7.
snakes::Result<std::unique_ptr<TpcdTenant>> SetUpTpcdTenant(
    uint64_t seed, snakes::StorageBackendKind kind, int window_epochs,
    bool with_metrics);

/// `count` queries drawn from `mu` with a seeded generator.
std::vector<snakes::GridQuery> SampleQueries(const snakes::StarSchema& schema,
                                             const snakes::Workload& mu,
                                             int count, uint64_t seed);

/// I/O the served layout costs on a fixed probe: exact for a given seed.
struct ProbeRecord {
  uint64_t queries = 0;
  uint64_t seeks = 0;
  uint64_t pages = 0;
  uint64_t min_pages = 0;

  bool operator==(const ProbeRecord& o) const {
    return queries == o.queries && seeks == o.seeks && pages == o.pages &&
           min_pages == o.min_pages;
  }
  bool operator!=(const ProbeRecord& o) const { return !(*this == o); }
};

/// Expected I/O per query of `mu` against `backend`, exact over every query
/// of every class (IoSimulator::MeasureAllClasses): the paper's seeks per
/// query and normalized blocks, with no sampling noise.
snakes::WorkloadIoStats ExpectedIo(const snakes::StorageBackend& backend,
                                   const snakes::Workload& mu);

/// Serves every probe query through Query and Measure. Checks that both
/// report the same I/O, that pages >= min_pages, and, when `reference` is
/// given, that the answer is bit-identical to the reference engine's.
/// Each query is one attempted check; a failed one is counted and reported.
ProbeRecord ServeProbe(snakes::AdvisorService& service, snakes::TenantId id,
                       const std::vector<snakes::GridQuery>& probe,
                       const snakes::QueryEngine* reference,
                       RunResult* result);

/// Per-request decomposition of reads into the layers below the service.
struct ReadLayers {
  std::vector<double> query_overhead_us;  // Query - Execute, same query
  std::vector<double> pin_us;
  std::vector<double> aggregate_us;  // Execute - Measure
  std::vector<double> measure_us;
  std::vector<double> append_runs_us;
  uint64_t reads = 0;
  double cells = 0.0;
  double runs = 0.0;
  uint64_t partitions = 0;
  uint64_t pruned = 0;
  /// Sum of the directly timed layer calls, and of the requests' wall.
  double covered_us = 0.0;
  double wall_us = 0.0;

  void Merge(const ReadLayers& o);
};

/// What one closed-loop reader saw.
struct ReadSample {
  std::vector<double> query_us;
  std::vector<double> measure_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  ReadLayers layers;

  void Merge(const ReadSample& o);
};

struct ReadLoopArgs {
  snakes::AdvisorService* service = nullptr;
  snakes::TenantId id = 0;
  const snakes::StarSchema* schema = nullptr;
  /// Each query's class comes from one of these, picked uniformly.
  std::vector<snakes::Workload> mix;
  /// Share of Measure requests; the rest are Query.
  double measure_share = 0.0;
  uint64_t seed = 0;
  /// Checked before every request.
  std::function<bool()> keep_going;
  /// Layout-independent oracle for count, sum, records and min_pages,
  /// consulted on every 32nd Query (may be null). Each reader queries it
  /// through its own engine: an engine is single-threaded state.
  const snakes::StorageBackend* reference = nullptr;
  /// Non-null in the traced phase: every request is decomposed.
  SpanLog* log = nullptr;
};

/// Issues requests until keep_going() is false; checks each answer.
void ReadLoop(const ReadLoopArgs& args, ReadSample* out);

/// Per-input decomposition of an advise into the layers below the service.
struct AdviseLayers {
  std::vector<double> dp_ms;
  std::vector<double> plan_ms;
  std::vector<double> evaluate_ms;
  std::vector<double> fill_ms;
  std::vector<double> fill_cached_ms;
  std::vector<double> class_runs_ms;
  /// Cache misses of the cached fill into an empty ClassCostCache.
  std::vector<double> evaluations;

  void Merge(const AdviseLayers& o);
};

/// Hands `mu` to each layer below a cold service Advise in turn: both path
/// DPs, Plan, Evaluate, the uncached and the cached class-cost fill of every
/// planned strategy, and per-class run emission of every planned strategy,
/// each call a child span of `parent`. `obs` is the service's own sink, so
/// the calls record what the service's would. Returns Plan + cached fill in
/// microseconds: the work a cold service Advise consists of.
double TraceAdviseLayers(
    SpanLog* log, uint64_t parent,
    const std::shared_ptr<const snakes::StarSchema>& schema,
    const snakes::Workload& mu, const snakes::ObsSink& obs, AdviseLayers* out,
    RunResult* result);

/// Per-relayout decomposition: packing both layouts and pricing the move.
struct RelayoutLayers {
  std::vector<double> pack_ms;
  std::vector<double> movement_ms;
  std::vector<double> pages_moved;
};

/// Packs `from` and `to` into `kind` and prices rewriting one into the
/// other, each call a child span of `parent`.
void TraceRelayoutLayers(SpanLog* log, uint64_t parent,
                         snakes::StorageBackendKind kind,
                         std::shared_ptr<const snakes::Linearization> from,
                         std::shared_ptr<const snakes::Linearization> to,
                         std::shared_ptr<const snakes::FactTable> facts,
                         RelayoutLayers* out, RunResult* result);

/// Every per-layer metric, in BENCHMARK.json order.
struct PerLayer {
  double query_overhead_us = 0.0;
  double pin_epoch_us = 0.0;
  double aggregate_us = 0.0;
  double measure_us = 0.0;
  double cells_per_query = 0.0;
  double prune_frac = 0.0;
  double pack_ms = 0.0;
  double append_runs_us = 0.0;
  double runs_per_query = 0.0;
  double class_runs_ms = 0.0;
  double dp_ms = 0.0;
  double plan_ms = 0.0;
  double evaluate_ms = 0.0;
  double fill_ms = 0.0;
  double fill_cached_ms = 0.0;
  double evaluations = 0.0;
  double cache_hit_ratio = 0.0;
  double movement_ms = 0.0;
  double pages_moved = 0.0;
  double adopt_ratio = 0.0;
  double dbgen_ms = 0.0;
  double overhead_pct = 0.0;
  double coverage_pct = 0.0;

  void SetReads(const ReadLayers& reads);
  void SetAdvise(const AdviseLayers& advise);
  void SetRelayout(const RelayoutLayers& relayout);
  /// hits / (hits + evaluations) of every incremental advise the service
  /// ran, from its own metrics registry.
  void SetCacheHitRatio(const snakes::MetricsRegistry& metrics);
  void Emit(RunResult* result) const;
};

/// Folds a reader's failures and first errors into the run result.
void AddFailures(const ReadSample& sample, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
