#include "storage/executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/math.h"

namespace snakes {

namespace {

/// Incremental page-run tracker for one query. Cells arrive in rank order,
/// so page spans are non-decreasing. When `run_hist` is non-null the length
/// of every completed sequential run is recorded (the open run is flushed
/// by CloseRun); the branch costs nothing extra on the common in-run path.
struct RunState {
  int64_t last_page = -1;
  uint64_t pages = 0;
  uint64_t seeks = 0;
  uint64_t records = 0;
  uint64_t run_start_pages = 0;  // `pages` when the current run began

  void Add(uint64_t first, uint64_t last, uint64_t recs,
           Histogram* run_hist = nullptr) {
    records += recs;
    const int64_t f = static_cast<int64_t>(first);
    const int64_t l = static_cast<int64_t>(last);
    if (f > last_page + 1 || last_page < 0) {
      // Gap (or very first access): a new non-sequential access.
      ++seeks;
      if (run_hist != nullptr) {
        CloseRun(run_hist);
        run_start_pages = pages;
      }
    }
    if (l > last_page) {
      const int64_t from = std::max(last_page + 1, f);
      pages += static_cast<uint64_t>(l - from + 1);
      last_page = l;
    }
  }

  /// Records the in-progress run's length, if any.
  void CloseRun(Histogram* run_hist) const {
    if (pages > run_start_pages) run_hist->Record(pages - run_start_pages);
  }
};

}  // namespace

IoSimulator::IoSimulator(const StorageBackend& backend, const ObsSink& obs,
                         RunArena* arena)
    : backend_(backend),
      arena_(arena != nullptr ? arena : &owned_arena_),
      tracer_(obs.tracer) {
  if (obs.metrics != nullptr) {
    pages_read_ = obs.metrics->GetCounter("storage.pages_read");
    seeks_ = obs.metrics->GetCounter("storage.seeks");
    cells_scanned_ = obs.metrics->GetCounter("storage.cells_scanned");
    runs_emitted_ = obs.metrics->GetCounter("curves.runs_emitted");
    partitions_scanned_ =
        obs.metrics->GetCounter("storage.partitions_scanned");
    partitions_pruned_ = obs.metrics->GetCounter("storage.partitions_pruned");
    run_length_ = obs.metrics->GetHistogram("storage.run_length_pages");
    cells_per_run_ = obs.metrics->GetHistogram("curves.cells_per_run");
  }
}

bool IoSimulator::AllPartitionsPruned(const CellBox& box,
                                      PruneStats* prune_out) const {
  if (backend_.num_partitions() == 0) return false;
  const PruneStats prune = backend_.PruneBox(box);
  if (partitions_scanned_ != nullptr) {
    partitions_scanned_->Inc(prune.scanned);
    partitions_pruned_->Inc(prune.pruned);
  }
  if (prune_out != nullptr) *prune_out = prune;
  return prune.scanned == 0;
}

QueryIo IoSimulator::Measure(const GridQuery& query,
                             PruneStats* prune) const {
  ScopedSpan span(tracer_, "storage/measure", "storage");
  const Linearization& lin = backend_.linearization();
  const CellBox box = BoxOf(lin.schema(), query);
  // Zone maps first: a box every partition prunes holds no records, so the
  // run decomposition (and its I/O) is skipped outright.
  if (AllPartitionsPruned(box, prune)) return QueryIo{};
  std::vector<RankRun>& runs = arena_->scratch();
  runs.clear();
  lin.AppendRuns(box, &runs);

  RunState run;
  for (const RankRun& r : runs) {
    const StorageBackend::RangeIo range = backend_.MeasureRange(r.start, r.len);
    if (range.records == 0) continue;
    run.Add(range.first_page, range.last_page, range.records, run_length_);
  }
  QueryIo io;
  io.records = run.records;
  io.pages = run.pages;
  io.seeks = run.seeks;
  io.min_pages = CeilDiv(CheckedMul(run.records, backend_.config().record_size_bytes),
                         backend_.config().page_size_bytes);
  if (run_length_ != nullptr) run.CloseRun(run_length_);
  if (pages_read_ != nullptr) {
    pages_read_->Inc(io.pages);
    seeks_->Inc(io.seeks);
    runs_emitted_->Inc(runs.size());
    for (const RankRun& r : runs) cells_per_run_->Record(r.len);
  }
  return io;
}

ClassIoStats IoSimulator::MeasureClass(const QueryClass& cls) const {
  const Linearization& lin = backend_.linearization();
  // Intervals pay off when each query covers many cells; at the fine end
  // (as many queries as cells) the single cell-walk pass is cheaper than
  // one decomposition per query. Classes whose runs provably degenerate to
  // single cells take the cell walk too — materializing num_cells() runs
  // buys nothing over walking the cells once.
  if (lin.HasRunDecomposition() &&
      NumQueriesInClass(lin.schema(), cls) < lin.num_cells() &&
      !lin.ClassRunsDegenerate(cls)) {
    return MeasureClassRuns(cls);
  }
  return MeasureClassCellWalk(cls);
}

ClassIoStats IoSimulator::MeasureClassRuns(const QueryClass& cls) const {
  const Linearization& lin = backend_.linearization();
  const StarSchema& schema = lin.schema();
  const uint64_t num_queries = NumQueriesInClass(schema, cls);

  ClassIoStats stats;
  stats.num_queries = num_queries;
  const uint64_t record_size = backend_.config().record_size_bytes;
  const uint64_t page_size = backend_.config().page_size_bytes;
  uint64_t total_runs = 0;
  if (backend_.num_partitions() == 0) {
    // Batched: one AppendClassRuns pass emits every query's runs in global
    // rank order; per-query page-run state is keyed by dense query id,
    // exactly as MeasureClassCellWalk keys cells. Aggregation then visits
    // queries in the same ascending id order as the per-query loop below,
    // so the stats (including the float normalized sum) are bit-identical.
    lin.AppendClassRuns(cls, arena_);
    std::vector<RunState> state(num_queries);
    const size_t n = arena_->num_runs();
    for (size_t i = 0; i < n; ++i) {
      const RankRun& r = arena_->run(i);
      const StorageBackend::RangeIo range =
          backend_.MeasureRange(r.start, r.len);
      if (cells_per_run_ != nullptr) cells_per_run_->Record(r.len);
      if (range.records == 0) continue;
      state[arena_->run_qid(i)].Add(range.first_page, range.last_page,
                                    range.records, run_length_);
    }
    total_runs = n;
    for (const RunState& run : state) {
      if (run.records == 0) continue;
      ++stats.num_nonempty;
      stats.total_pages += run.pages;
      stats.total_seeks += run.seeks;
      if (run_length_ != nullptr) run.CloseRun(run_length_);
      const uint64_t min_pages =
          CeilDiv(CheckedMul(run.records, record_size), page_size);
      stats.total_normalized +=
          static_cast<double>(run.pages) / static_cast<double>(min_pages);
    }
  } else {
    // Partitioned: keep the per-query loop so the zone maps can veto each
    // box before any decomposition (and the pruning counters stay per
    // query). The run vector is the arena's reusable scratch.
    std::vector<RankRun>& runs = arena_->scratch();
    for (uint64_t i = 0; i < num_queries; ++i) {
      const CellBox box = BoxOf(schema, QueryAt(schema, cls, i));
      if (AllPartitionsPruned(box)) continue;
      runs.clear();
      lin.AppendRuns(box, &runs);
      RunState run;
      for (const RankRun& r : runs) {
        const StorageBackend::RangeIo range =
            backend_.MeasureRange(r.start, r.len);
        if (range.records == 0) continue;
        run.Add(range.first_page, range.last_page, range.records, run_length_);
      }
      total_runs += runs.size();
      if (cells_per_run_ != nullptr) {
        for (const RankRun& r : runs) cells_per_run_->Record(r.len);
      }
      if (run.records == 0) continue;
      ++stats.num_nonempty;
      stats.total_pages += run.pages;
      stats.total_seeks += run.seeks;
      if (run_length_ != nullptr) run.CloseRun(run_length_);
      const uint64_t min_pages =
          CeilDiv(CheckedMul(run.records, record_size), page_size);
      stats.total_normalized +=
          static_cast<double>(run.pages) / static_cast<double>(min_pages);
    }
  }
  if (pages_read_ != nullptr) {
    pages_read_->Inc(stats.total_pages);
    seeks_->Inc(stats.total_seeks);
    runs_emitted_->Inc(total_runs);
  }
  return stats;
}

ClassIoStats IoSimulator::MeasureClassCellWalk(const QueryClass& cls) const {
  const Linearization& lin = backend_.linearization();
  const StarSchema& schema = lin.schema();
  const int k = schema.num_dims();

  // Dense query-id strides for this class.
  FixedVector<uint64_t, kMaxDimensions> strides;
  strides.resize(static_cast<size_t>(k));
  uint64_t num_queries = 1;
  for (int d = k - 1; d >= 0; --d) {
    strides[static_cast<size_t>(d)] = num_queries;
    num_queries *= schema.dim(d).num_blocks(cls.level(d));
  }

  std::vector<RunState> state(num_queries);
  lin.Walk([&](uint64_t rank, const CellCoord& coord) {
    if (backend_.CellEmpty(rank)) return;
    uint64_t qid = 0;
    for (int d = 0; d < k; ++d) {
      qid += schema.dim(d).AncestorAt(coord[static_cast<size_t>(d)],
                                      cls.level(d)) *
             strides[static_cast<size_t>(d)];
    }
    state[qid].Add(backend_.CellFirstPage(rank), backend_.CellLastPage(rank),
                   backend_.CellRecords(rank), run_length_);
  });

  ClassIoStats stats;
  stats.num_queries = num_queries;
  const uint64_t record_size = backend_.config().record_size_bytes;
  const uint64_t page_size = backend_.config().page_size_bytes;
  for (const RunState& run : state) {
    if (run.records == 0) continue;
    ++stats.num_nonempty;
    stats.total_pages += run.pages;
    stats.total_seeks += run.seeks;
    if (run_length_ != nullptr) run.CloseRun(run_length_);
    const uint64_t min_pages = CeilDiv(CheckedMul(run.records, record_size), page_size);
    stats.total_normalized +=
        static_cast<double>(run.pages) / static_cast<double>(min_pages);
  }
  if (pages_read_ != nullptr) {
    pages_read_->Inc(stats.total_pages);
    seeks_->Inc(stats.total_seeks);
    cells_scanned_->Inc(schema.num_cells());
  }
  return stats;
}

std::vector<ClassIoStats> IoSimulator::MeasureAllClasses() const {
  const QueryClassLattice lat(backend_.linearization().schema());
  ScopedSpan span(tracer_, "storage/measure_all", "storage");
  span.AddArg("strategy", backend_.linearization().name());
  span.AddArg("classes", lat.size());
  std::vector<ClassIoStats> all;
  all.reserve(lat.size());
  for (uint64_t i = 0; i < lat.size(); ++i) {
    all.push_back(MeasureClass(lat.ClassAt(i)));
  }
  return all;
}

WorkloadIoStats IoSimulator::Expect(const Workload& mu,
                                    const std::vector<ClassIoStats>& per_class) {
  SNAKES_CHECK(per_class.size() == mu.lattice().size())
      << "per-class stats do not cover the workload lattice";
  WorkloadIoStats out;
  for (uint64_t i = 0; i < per_class.size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    out.expected_seeks += p * per_class[i].AvgSeeks();
    out.expected_normalized_blocks += p * per_class[i].AvgNormalizedBlocks();
    out.expected_pages += p * per_class[i].AvgPages();
  }
  return out;
}

}  // namespace snakes
