#ifndef SNAKES_STORAGE_BACKEND_H_
#define SNAKES_STORAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "curves/linearization.h"
#include "curves/rank_run.h"
#include "lattice/grid_query.h"
#include "obs/obs.h"
#include "storage/fact_table.h"
#include "util/logging.h"
#include "util/result.h"

namespace snakes {

/// Physical parameters of the simulated disk (Section 6.1 uses 125-byte
/// records on 8 KB pages).
struct StorageConfig {
  uint64_t page_size_bytes = 8192;
  uint64_t record_size_bytes = 125;
  /// Target size (in pages) of one micro-partition. Only the
  /// micro-partition backend reads it; PackedLayout ignores it.
  uint64_t micro_partition_pages = 16;

  /// Records that fit a fresh page.
  uint64_t RecordsPerPage() const {
    return page_size_bytes / record_size_bytes;
  }
};

/// The storage representations a fact table can be packed into.
enum class StorageBackendKind {
  /// One flat run of pages in rank order (the paper's Section 6.1 disk).
  kPacked,
  /// Pages grouped into immutable micro-partitions with per-dimension
  /// min/max zone maps (Snowflake-style cloud storage).
  kMicroPartition,
};

/// Stable lowercase name ("packed" / "micropartition").
const char* StorageBackendKindName(StorageBackendKind kind);

/// Inverse of StorageBackendKindName; InvalidArgument on unknown names.
Result<StorageBackendKind> ParseStorageBackendKind(std::string_view name);

/// Measured I/O of a single grid query against a storage backend.
struct QueryIo {
  uint64_t records = 0;    // records selected
  uint64_t pages = 0;      // distinct pages read
  uint64_t seeks = 0;      // non-sequential accesses (maximal page runs)
  uint64_t min_pages = 0;  // ceil(records * record_size / page_size)

  /// Pages read over the perfectly-clustered minimum (Section 6.1's
  /// normalized blocks). Defined only for non-empty queries; asking for it
  /// on an empty one aborts instead of silently returning inf/NaN.
  double NormalizedBlocks() const {
    SNAKES_CHECK(min_pages > 0)
        << "NormalizedBlocks is undefined for empty queries";
    return static_cast<double>(pages) / static_cast<double>(min_pages);
  }
};

/// A closed range predicate on the measure attribute — the record-level
/// filter measure zone maps prune against (SELECT ... WHERE measure BETWEEN
/// lo AND hi on top of the grid box).
struct MeasureBounds {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double v) const { return v >= lo && v <= hi; }
};

/// Outcome of zone-map pruning a query box against a backend's partition
/// directory. Non-partitioned backends report all-zero stats ("nothing to
/// prune"); partitioned ones satisfy scanned + pruned == partitions.
struct PruneStats {
  uint64_t partitions = 0;  // directory size consulted
  uint64_t scanned = 0;     // partitions whose zone map overlaps the box
  uint64_t pruned = 0;      // partitions skipped without touching data

  double PrunedFraction() const {
    return partitions == 0
               ? 0.0
               : static_cast<double>(pruned) / static_cast<double>(partitions);
  }
};

/// One side of a relayout priced at the backend's native rewrite
/// granularity: PackedLayout moves individual rank runs, MicroPartitionStore
/// rewrites whole partitions (immutable files are replaced, never patched).
struct RewriteIo {
  uint64_t pages = 0;       // pages read from / written to this side
  uint64_t units = 0;       // sequential transfer units (runs or partitions)
  uint64_t partitions = 0;  // whole partitions touched; 0 at run granularity
};

/// Abstract storage backend: the on-disk image of a fact table under one
/// clustering strategy. Every backend packs records page by page following
/// the linearization's rank order (a cell's records may span a page
/// boundary, but single records never split — when a page's remainder is
/// smaller than one record the page is closed and the record starts the next
/// page, Section 6.1). With one record size, every page therefore holds
/// exactly RecordsPerPage() records and record i in rank order lives on page
/// i / RecordsPerPage(), so one prefix sum of per-rank record counts is the
/// whole representation that rank-range measurement, query evaluation, and
/// movement-cost diffs share. Backends differ in the metadata layered on
/// top: how pages group into partitions, what a query may skip without
/// reading (PruneBox), and the granularity at which a relayout rewrites data
/// (RewriteReadIo / RewriteWriteIo).
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Which concrete representation this is.
  virtual StorageBackendKind kind() const = 0;
  const char* kind_name() const { return StorageBackendKindName(kind()); }

  const Linearization& linearization() const { return *lin_; }
  std::shared_ptr<const Linearization> linearization_ptr() const {
    return lin_;
  }
  const FactTable& facts() const { return *facts_; }
  const StorageConfig& config() const { return config_; }

  /// Total pages used: ceil(total records / RecordsPerPage()).
  uint64_t num_pages() const { return num_pages_; }

  /// Partition directory size; 0 means the backend has no partition
  /// structure (every page lives in one implicit unit).
  virtual uint64_t num_partitions() const { return 0; }

  /// True iff the cell at `rank` holds no records.
  bool CellEmpty(uint64_t rank) const {
    return cum_records_[rank + 1] == cum_records_[rank];
  }

  /// First/last page (inclusive) holding records of the cell at `rank`;
  /// meaningful only when !CellEmpty(rank). Record i (in rank order) lives
  /// on page i / RecordsPerPage().
  uint64_t CellFirstPage(uint64_t rank) const {
    return cum_records_[rank] / records_per_page_;
  }
  uint64_t CellLastPage(uint64_t rank) const {
    return (cum_records_[rank + 1] - 1) / records_per_page_;
  }

  /// Record count of the cell at `rank`.
  uint32_t CellRecords(uint64_t rank) const {
    return static_cast<uint32_t>(cum_records_[rank + 1] - cum_records_[rank]);
  }

  /// Aggregate I/O footprint of a rank run. Because records pack in rank
  /// order, the pages of any consecutive-rank range form one contiguous
  /// interval with no internal gaps; empty ranges use the same inverted
  /// convention as CellEmpty (first > last).
  struct RangeIo {
    uint64_t records = 0;
    uint64_t first_page = 1;
    uint64_t last_page = 0;
  };

  /// Footprint of ranks [start, start + len) in O(1), from the record prefix
  /// sums built at pack time. Checked: a range reaching past the grid aborts
  /// instead of reading out of bounds (ranks approach 2^63 on wide
  /// schemas, so start + len itself is guarded against wraparound).
  RangeIo MeasureRange(uint64_t start, uint64_t len) const;

  /// I/O of a sorted, disjoint, coalesced run decomposition (the output of
  /// Linearization::AppendRuns): one linear pass merging adjacent page
  /// spans, O(runs). The uninstrumented core of IoSimulator::Measure.
  QueryIo MeasureRuns(const std::vector<RankRun>& runs) const;

  /// Zone-map pruning of a query box: how much of the partition directory a
  /// query can skip before scanning survivors. Pruning is conservative — a
  /// pruned partition holds no cell of the box, so it never changes the
  /// measured QueryIo, only the evaluation work. The base backend has no
  /// partitions and returns all-zero stats.
  virtual PruneStats PruneBox(const CellBox& box) const {
    (void)box;
    return PruneStats{};
  }

  /// Zone-map pruning of a query box with a measure predicate layered on
  /// top: a partition may additionally be skipped when its record-level
  /// measure min/max range misses `bounds`. Same conservativeness contract
  /// as PruneBox — a pruned partition holds no record of the box whose
  /// measure lies in `bounds`. The base backend has no partitions and
  /// returns all-zero stats.
  virtual PruneStats PruneBoxMeasure(const CellBox& box,
                                     const MeasureBounds& bounds) const {
    (void)bounds;
    return PruneBox(box);
  }

  /// Read-side I/O of relocating the record ranges in `ranges` (disjoint
  /// rank runs on *this* backend, any order). The default prices run
  /// granularity: each range with >= 1 record costs its contiguous page
  /// span as one sequential unit.
  virtual RewriteIo RewriteReadIo(const std::vector<RankRun>& ranges) const {
    return RunGranularityIo(ranges);
  }

  /// Write-side I/O of materializing the record ranges in `ranges` at their
  /// destination on *this* backend. Same default granularity as reads.
  virtual RewriteIo RewriteWriteIo(const std::vector<RankRun>& ranges) const {
    return RunGranularityIo(ranges);
  }

 protected:
  StorageBackend() = default;
  // Copy/move stay available to concrete backends (Result<T> needs moves and
  // callers hold layouts by value) but are protected here against slicing.
  StorageBackend(const StorageBackend&) = default;
  StorageBackend& operator=(const StorageBackend&) = default;
  StorageBackend(StorageBackend&&) = default;
  StorageBackend& operator=(StorageBackend&&) = default;

  /// Validates the inputs and packs `facts` along `lin` into the shared
  /// page representation: the per-rank record prefix sums every page span
  /// derives from. Fails if config is degenerate (page smaller than a
  /// record) or the linearization's grid differs from the fact table's. `obs`
  /// (optional) records a "storage/pack" span and the storage.pages_packed /
  /// storage.records_packed counters.
  Status PackPages(std::shared_ptr<const Linearization> lin,
                   std::shared_ptr<const FactTable> facts,
                   StorageConfig config, const ObsSink& obs);

  /// Shared run-granularity rewrite pricing (the PackedLayout model).
  RewriteIo RunGranularityIo(const std::vector<RankRun>& ranges) const;

 private:
  std::shared_ptr<const Linearization> lin_;
  std::shared_ptr<const FactTable> facts_;
  StorageConfig config_;
  uint64_t num_pages_ = 0;
  uint64_t records_per_page_ = 1;
  // cum_records_[r] = records in ranks [0, r) (num_cells + 1 entries); every
  // page span is derived from it (see the class comment).
  std::vector<uint64_t> cum_records_;
};

/// Packs `facts` along `lin` into a heap-allocated backend of the requested
/// kind — the single construction path the recluster engine, the advisor's
/// storage-measure scoring, and the service all share. Defined in
/// micro_partition.cc, where both concrete backends are visible.
Result<std::shared_ptr<const StorageBackend>> MakeStorageBackend(
    StorageBackendKind kind, std::shared_ptr<const Linearization> lin,
    std::shared_ptr<const FactTable> facts, StorageConfig config = {},
    const ObsSink& obs = {});

}  // namespace snakes

#endif  // SNAKES_STORAGE_BACKEND_H_
