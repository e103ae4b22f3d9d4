#ifndef SNAKES_STORAGE_FACT_TABLE_H_
#define SNAKES_STORAGE_FACT_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hierarchy/star_schema.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snakes {

/// The fact table of a star schema, reduced to what physical clustering
/// needs: for every grid cell, the number of records mapping to that cell
/// and the sum of their measure attribute (enough to answer COUNT/SUM grid
/// queries exactly). Cells may be empty — real warehouses are sparse
/// (Section 6.1: "Each cell ... was populated with zero or more records").
class FactTable {
 public:
  explicit FactTable(std::shared_ptr<const StarSchema> schema)
      : schema_(std::move(schema)),
        counts_(schema_->num_cells(), 0),
        measure_sums_(schema_->num_cells(), 0.0),
        measure_mins_(schema_->num_cells(), 0.0),
        measure_maxs_(schema_->num_cells(), 0.0) {}

  /// A dense synthetic table: every cell gets `min_records` to
  /// `max_records` records with uniform random measures in [0, 1).
  static std::shared_ptr<FactTable> Random(
      const std::shared_ptr<const StarSchema>& schema, uint64_t min_records,
      uint64_t max_records, Rng* rng) {
    auto facts = std::make_shared<FactTable>(schema);
    for (CellId id = 0; id < schema->num_cells(); ++id) {
      const uint64_t n =
          min_records + rng->Below(max_records - min_records + 1);
      for (uint64_t r = 0; r < n; ++r) {
        facts->AddRecord(schema->Unflatten(id), rng->NextDouble());
      }
    }
    return facts;
  }

  const StarSchema& schema() const { return *schema_; }
  std::shared_ptr<const StarSchema> schema_ptr() const { return schema_; }

  /// Adds one record in `coord`'s cell with the given measure value.
  void AddRecord(const CellCoord& coord, double measure = 0.0) {
    const CellId id = schema_->Flatten(coord);
    if (counts_[id] == 0) {
      measure_mins_[id] = measure;
      measure_maxs_[id] = measure;
    } else {
      if (measure < measure_mins_[id]) measure_mins_[id] = measure;
      if (measure > measure_maxs_[id]) measure_maxs_[id] = measure;
    }
    ++counts_[id];
    measure_sums_[id] += measure;
    ++total_records_;
  }

  /// Record count of a cell.
  uint32_t count(CellId id) const {
    SNAKES_DCHECK(id < counts_.size());
    return counts_[id];
  }

  /// Sum of the measure attribute over a cell's records.
  double measure_sum(CellId id) const { return measure_sums_[id]; }

  /// Record-level min/max of the measure attribute over a cell's records —
  /// exact (tracked per AddRecord), not derived from the sum. Meaningful
  /// only when count(id) > 0; empty cells report 0.
  double measure_min(CellId id) const { return measure_mins_[id]; }
  double measure_max(CellId id) const { return measure_maxs_[id]; }

  uint64_t total_records() const { return total_records_; }
  uint64_t num_cells() const { return counts_.size(); }

  /// Number of cells with at least one record.
  uint64_t NumOccupiedCells() const {
    uint64_t n = 0;
    for (uint32_t c : counts_) n += c > 0;
    return n;
  }

 private:
  std::shared_ptr<const StarSchema> schema_;
  std::vector<uint32_t> counts_;
  std::vector<double> measure_sums_;
  std::vector<double> measure_mins_;
  std::vector<double> measure_maxs_;
  uint64_t total_records_ = 0;
};

}  // namespace snakes

#endif  // SNAKES_STORAGE_FACT_TABLE_H_
