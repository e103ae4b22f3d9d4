#ifndef SNAKES_CURVES_RUN_ARENA_H_
#define SNAKES_CURVES_RUN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "curves/rank_run.h"
#include "util/logging.h"

namespace snakes {

class Histogram;  // obs/metrics.h

/// Reusable storage for the run decompositions of every query of one lattice
/// class. Batched emitters (Linearization::AppendClassRuns) walk the curve
/// once and append (query id, run) pairs in global rank order; the arena
/// coalesces per query and keeps per-query counts, so cost measurement needs
/// neither a vector per query nor a regrouping pass — each query's runs
/// already arrive in ascending rank order within the emission-order list.
///
/// Lifetime contract: one arena serves one thread. BeginClass() resets the
/// logical contents for the next class while keeping every allocation, so an
/// arena threaded through a measurement loop (IoSimulator, the class-cost
/// fill, the advisor's per-strategy tasks) amortizes run storage across all
/// classes of all strategies it scores; results are bit-identical to fresh
/// vectors because no state other than capacity survives BeginClass().
class RunArena {
 public:
  /// Starts a new class with `num_queries` query boxes, forgetting all
  /// previously emitted runs (capacity is retained).
  void BeginClass(uint64_t num_queries);

  /// Switches between storing every run (the default; IoSimulator and the
  /// storage executor read them back) and only counting them. A counting
  /// arena keeps each query's open run and its run count — O(queries)
  /// memory instead of O(runs) — so num_runs() and query_run_count() stay
  /// exact while run()/run_qid() hold nothing. With `run_lengths`, every
  /// coalesced run's length is recorded there once it can grow no further:
  /// as Append closes it, or at EndClass(). Call between classes; the next
  /// BeginClass() starts in the new mode.
  void SetCountOnly(bool count_only, Histogram* run_lengths = nullptr);

  /// Appends rank interval [start, start + len) to query `qid`, merging into
  /// that query's previous run when adjacent. Starts must be non-decreasing
  /// per query (emitters that walk the curve in rank order satisfy this
  /// globally).
  void Append(uint64_t qid, uint64_t start, uint64_t len) {
    SNAKES_DCHECK(qid < per_query_runs_.size());
    SNAKES_DCHECK(len > 0);
    if (count_only_) {
      RankRun& open = open_runs_[qid];
      if (open.len != 0 && open.end() == start) {
        open.len += len;
        return;
      }
      SNAKES_DCHECK(open.len == 0 || open.end() < start);
      if (open.len != 0 && run_lengths_ != nullptr) RecordRunLength(open.len);
      open = RankRun{start, len};
      ++per_query_runs_[qid];
      ++num_runs_;
      return;
    }
    const int64_t last = per_query_last_[qid];
    if (last >= 0 && runs_[static_cast<size_t>(last)].end() == start) {
      runs_[static_cast<size_t>(last)].len += len;
      return;
    }
    SNAKES_DCHECK(last < 0 || runs_[static_cast<size_t>(last)].end() < start);
    per_query_last_[qid] = static_cast<int64_t>(runs_.size());
    ++per_query_runs_[qid];
    ++num_runs_;
    runs_.push_back(RankRun{start, len});
    qids_.push_back(qid);
  }

  /// Ends the current class: a counting arena with a run-length histogram
  /// records every query's still-open run there. No-op otherwise.
  void EndClass();

  uint64_t num_queries() const { return per_query_runs_.size(); }

  /// Emitted runs after coalescing (counted ones too).
  size_t num_runs() const { return num_runs_; }
  /// Runs in emission (global rank) order; empty while counting.
  const RankRun& run(size_t i) const { return runs_[i]; }
  uint64_t run_qid(size_t i) const { return qids_[i]; }
  /// Runs the arena holds storage for; 0 for one that has only counted.
  size_t run_capacity() const { return runs_.capacity(); }

  /// Coalesced run count of one query — its fragment count.
  uint64_t query_run_count(uint64_t qid) const { return per_query_runs_[qid]; }

  /// A reusable scratch vector for per-box decompositions (the default
  /// AppendClassRuns and other callers that still want a plain run list).
  /// Contents are caller-managed; unrelated to the class emission state.
  std::vector<RankRun>& scratch() { return scratch_; }

 private:
  void RecordRunLength(uint64_t len);

  std::vector<RankRun> runs_;       // emission order
  std::vector<uint64_t> qids_;      // qids_[i] owns runs_[i]
  std::vector<int64_t> per_query_last_;   // index into runs_, -1 = none
  std::vector<uint64_t> per_query_runs_;  // coalesced count per query
  size_t num_runs_ = 0;
  std::vector<RankRun> scratch_;
  // Counting mode: each query's open run (len 0 = none) instead of runs_.
  bool count_only_ = false;
  Histogram* run_lengths_ = nullptr;
  std::vector<RankRun> open_runs_;
};

}  // namespace snakes

#endif  // SNAKES_CURVES_RUN_ARENA_H_
