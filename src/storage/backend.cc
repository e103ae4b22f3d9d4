#include "storage/backend.h"

#include <algorithm>

#include "hierarchy/star_schema.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/math.h"

namespace snakes {

const char* StorageBackendKindName(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kPacked:
      return "packed";
    case StorageBackendKind::kMicroPartition:
      return "micropartition";
  }
  SNAKES_CHECK(false) << "unknown StorageBackendKind";
  return "";
}

Result<StorageBackendKind> ParseStorageBackendKind(std::string_view name) {
  if (name == "packed") return StorageBackendKind::kPacked;
  if (name == "micropartition" || name == "micro-partition") {
    return StorageBackendKind::kMicroPartition;
  }
  return Status::InvalidArgument("unknown storage backend: \"" +
                                 std::string(name) +
                                 "\" (expected packed|micropartition)");
}

Status StorageBackend::PackPages(std::shared_ptr<const Linearization> lin,
                                 std::shared_ptr<const FactTable> facts,
                                 StorageConfig config, const ObsSink& obs) {
  ScopedSpan span(obs.tracer, "storage/pack", "storage");
  span.AddArg("strategy", lin->name());
  if (config.record_size_bytes == 0 ||
      config.page_size_bytes < config.record_size_bytes) {
    return Status::InvalidArgument(
        "page must hold at least one whole record");
  }
  if (!lin->schema().SameGrid(facts->schema())) {
    return Status::InvalidArgument(
        "linearization and fact table describe different grids");
  }
  lin_ = std::move(lin);
  facts_ = std::move(facts);
  config_ = config;
  records_per_page_ = config.RecordsPerPage();
  cum_records_.resize(lin_->num_cells() + 1);
  cum_records_[0] = 0;
  const StarSchema& schema = lin_->schema();
  // Walk visits ranks in order, so cum_records_[rank] is final when read.
  // Checked: near-2^63-cell grids must abort rather than wrap the prefix
  // sums MeasureRange subtracts (the CellBox::NumCells convention).
  lin_->Walk([&](uint64_t rank, const CellCoord& coord) {
    cum_records_[rank + 1] =
        CheckedAdd(cum_records_[rank], facts_->count(schema.Flatten(coord)));
  });
  num_pages_ = CeilDiv(cum_records_.back(), records_per_page_);
  if (obs.metrics != nullptr) {
    obs.metrics->GetCounter("storage.pages_packed")->Inc(num_pages_);
    obs.metrics->GetCounter("storage.records_packed")
        ->Inc(facts_->total_records());
  }
  return Status::OK();
}

StorageBackend::RangeIo StorageBackend::MeasureRange(uint64_t start,
                                                     uint64_t len) const {
  // Explicit overflow-safe bounds check: start + len may wrap uint64 when
  // cell counts approach 2^63, so compare against the grid without adding.
  const uint64_t n = cum_records_.size() - 1;
  SNAKES_CHECK(len <= n && start <= n - len)
      << "MeasureRange past the grid: start=" << start << " len=" << len
      << " cells=" << n;
  RangeIo io;
  const uint64_t before = cum_records_[start];
  const uint64_t through = cum_records_[start + len];
  io.records = through - before;
  if (io.records == 0) return io;
  // Records [before, through) are consecutive on disk.
  io.first_page = before / records_per_page_;
  io.last_page = (through - 1) / records_per_page_;
  return io;
}

QueryIo StorageBackend::MeasureRuns(const std::vector<RankRun>& runs) const {
  QueryIo io;
  int64_t last_page = -1;
  for (const RankRun& r : runs) {
    const RangeIo range = MeasureRange(r.start, r.len);
    if (range.records == 0) continue;
    io.records += range.records;
    const int64_t f = static_cast<int64_t>(range.first_page);
    const int64_t l = static_cast<int64_t>(range.last_page);
    if (f > last_page + 1 || last_page < 0) ++io.seeks;
    if (l > last_page) {
      const int64_t from = std::max(last_page + 1, f);
      io.pages += static_cast<uint64_t>(l - from + 1);
      last_page = l;
    }
  }
  io.min_pages = CeilDiv(CheckedMul(io.records, config_.record_size_bytes),
                         config_.page_size_bytes);
  return io;
}

RewriteIo StorageBackend::RunGranularityIo(
    const std::vector<RankRun>& ranges) const {
  RewriteIo io;
  for (const RankRun& r : ranges) {
    const RangeIo range = MeasureRange(r.start, r.len);
    if (range.records == 0) continue;
    io.pages += range.last_page - range.first_page + 1;
    ++io.units;
  }
  return io;
}

}  // namespace snakes
