#include "recluster/movement.h"

#include <vector>

namespace snakes {

Result<MovementCost> ComputeMovementCost(const StorageBackend& current,
                                         const StorageBackend& proposed) {
  const uint64_t n = current.linearization().num_cells();
  if (!current.linearization().schema().SameGrid(
          proposed.linearization().schema())) {
    return Status::InvalidArgument(
        "movement cost requires backends over the same grid");
  }
  const uint64_t total_records = current.MeasureRange(0, n).records;
  if (proposed.MeasureRange(0, n).records != total_records) {
    return Status::InvalidArgument(
        "movement cost requires backends of the same fact table");
  }

  MovementCost cost;
  cost.total_cells = n;

  // Where each proposed rank's cell lives today.
  std::vector<uint64_t> source(n);
  for (uint64_t r = 0; r < n; ++r) {
    source[r] =
        current.linearization().RankOf(proposed.linearization().CellAt(r));
  }

  uint64_t stable = 0;
  while (stable < n && source[stable] == stable) ++stable;
  cost.stable_prefix_cells = stable;

  // Decompose the remainder into maximal runs consecutive in the source.
  // The permutation structure (moved_runs, moved_records) is granularity
  // independent; each backend then prices the same run lists at its own
  // rewrite granularity.
  std::vector<RankRun> src_ranges;  // disjoint on `current`, unsorted
  std::vector<RankRun> dst_ranges;  // sorted and disjoint on `proposed`
  uint64_t r = stable;
  while (r < n) {
    uint64_t len = 1;
    while (r + len < n && source[r + len] == source[r] + len) ++len;
    const StorageBackend::RangeIo src = current.MeasureRange(source[r], len);
    if (src.records > 0) {
      ++cost.moved_runs;
      cost.moved_records += src.records;
      src_ranges.push_back(RankRun{source[r], len});
      dst_ranges.push_back(RankRun{r, len});
    }
    r += len;
  }
  const RewriteIo read = current.RewriteReadIo(src_ranges);
  const RewriteIo write = proposed.RewriteWriteIo(dst_ranges);
  cost.pages_read = read.pages;
  cost.pages_written = write.pages;
  cost.partitions_read = read.partitions;
  cost.partitions_written = write.partitions;
  return cost;
}

}  // namespace snakes
