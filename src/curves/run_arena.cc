#include "curves/run_arena.h"

#include "obs/metrics.h"

namespace snakes {

void RunArena::BeginClass(uint64_t num_queries) {
  runs_.clear();
  qids_.clear();
  per_query_runs_.assign(num_queries, 0);
  num_runs_ = 0;
  if (count_only_) {
    open_runs_.assign(num_queries, RankRun{0, 0});
  } else {
    per_query_last_.assign(num_queries, -1);
  }
}

void RunArena::SetCountOnly(bool count_only, Histogram* run_lengths) {
  count_only_ = count_only;
  run_lengths_ = count_only ? run_lengths : nullptr;
}

void RunArena::EndClass() {
  if (!count_only_ || run_lengths_ == nullptr) return;
  for (const RankRun& open : open_runs_) {
    if (open.len != 0) RecordRunLength(open.len);
  }
}

void RunArena::RecordRunLength(uint64_t len) { run_lengths_->Record(len); }

}  // namespace snakes
