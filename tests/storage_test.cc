#include <gtest/gtest.h>

#include <memory>

#include "curves/row_major.h"
#include "hierarchy/star_schema.h"
#include "storage/executor.h"
#include "storage/fact_table.h"
#include "storage/pager.h"
#include "util/rng.h"

namespace snakes {
namespace {

std::shared_ptr<const StarSchema> SmallSchema() {
  auto a = Hierarchy::Uniform("a", {2, 2}).value();
  auto b = Hierarchy::Uniform("b", {2, 2}).value();
  return std::make_shared<StarSchema>(StarSchema::Make("s", {a, b}).value());
}

CellCoord At(uint64_t x, uint64_t y) {
  CellCoord c;
  c.resize(2);
  c[0] = x;
  c[1] = y;
  return c;
}

TEST(FactTableTest, CountsAndMeasures) {
  auto schema = SmallSchema();
  FactTable facts(schema);
  EXPECT_EQ(facts.total_records(), 0u);
  facts.AddRecord(At(1, 2), 10.0);
  facts.AddRecord(At(1, 2), 5.0);
  facts.AddRecord(At(3, 0), 1.0);
  EXPECT_EQ(facts.total_records(), 3u);
  EXPECT_EQ(facts.count(schema->Flatten(At(1, 2))), 2u);
  EXPECT_DOUBLE_EQ(facts.measure_sum(schema->Flatten(At(1, 2))), 15.0);
  EXPECT_EQ(facts.NumOccupiedCells(), 2u);
}

class PackTest : public ::testing::Test {
 protected:
  PackTest() : schema_(SmallSchema()) {
    auto facts = std::make_shared<FactTable>(schema_);
    // Cell (x,y) gets x + y records: total sum = 48 records; cell (0,0)
    // stays empty.
    for (uint64_t x = 0; x < 4; ++x) {
      for (uint64_t y = 0; y < 4; ++y) {
        for (uint64_t r = 0; r < x + y; ++r) {
          facts->AddRecord(At(x, y), 1.0);
        }
      }
    }
    facts_ = facts;
    lin_ = std::shared_ptr<const Linearization>(
        RowMajorOrder::Make(schema_, {0, 1}).value());
  }

  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const FactTable> facts_;
  std::shared_ptr<const Linearization> lin_;
};

TEST_F(PackTest, ConservationInvariants) {
  // 10-byte records, 35-byte pages: 3 records per page.
  StorageConfig config{35, 10};
  const PackedLayout layout =
      PackedLayout::Pack(lin_, facts_, config).value();
  // 48 records, 3 per page -> at least 16 pages (cell splits can't waste
  // space here because pages close only when full).
  EXPECT_EQ(layout.num_pages(), 16u);
  // Page spans are non-decreasing along the linearization and cells report
  // their record counts faithfully.
  uint64_t expected_records = 0;
  int64_t last_first = -1;
  for (uint64_t rank = 0; rank < layout.linearization().num_cells(); ++rank) {
    expected_records += layout.CellRecords(rank);
    if (!layout.CellEmpty(rank)) {
      EXPECT_GE(static_cast<int64_t>(layout.CellFirstPage(rank)), last_first);
      EXPECT_GE(layout.CellLastPage(rank), layout.CellFirstPage(rank));
      EXPECT_LT(layout.CellLastPage(rank), layout.num_pages());
      last_first = static_cast<int64_t>(layout.CellFirstPage(rank));
    }
  }
  EXPECT_EQ(expected_records, facts_->total_records());
  // Rank 0 is cell (0,0): empty.
  EXPECT_TRUE(layout.CellEmpty(0));
}

TEST_F(PackTest, RecordsNeverSplitAcrossPages) {
  // 10-byte records on 25-byte pages: 2 records per page, 5 bytes lost per
  // page. 48 records -> 24 pages.
  StorageConfig config{25, 10};
  const PackedLayout layout =
      PackedLayout::Pack(lin_, facts_, config).value();
  EXPECT_EQ(layout.num_pages(), 24u);
}

TEST_F(PackTest, PackValidation) {
  EXPECT_FALSE(PackedLayout::Pack(lin_, facts_, StorageConfig{5, 10}).ok());
  EXPECT_FALSE(PackedLayout::Pack(lin_, facts_, StorageConfig{10, 0}).ok());
}

TEST(PackGridTest, RejectsTransposedGridOfEqualCellCount) {
  // A linearization over 6x4 and a fact table over 4x6 share a cell count,
  // but every flattened cell id would index the wrong cell.
  auto grid = [](uint64_t rows, uint64_t cols) {
    return std::make_shared<const StarSchema>(
        StarSchema::Make("g", {Hierarchy::Uniform("r", {rows}).value(),
                               Hierarchy::Uniform("c", {cols}).value()})
            .value());
  };
  const auto tall = grid(6, 4);
  const auto wide = grid(4, 6);
  auto facts = std::make_shared<FactTable>(wide);
  facts->AddRecord(At(3, 5), 1.0);
  std::shared_ptr<const Linearization> lin(
      RowMajorOrder::Make(tall, {0, 1}).value());
  const auto packed = PackedLayout::Pack(lin, facts);
  ASSERT_FALSE(packed.ok());
  EXPECT_EQ(packed.status().code(), StatusCode::kInvalidArgument);
  // A distinct schema object with the same extents is the same grid.
  auto twin = std::make_shared<FactTable>(grid(6, 4));
  twin->AddRecord(At(5, 3), 1.0);
  EXPECT_TRUE(PackedLayout::Pack(lin, twin).ok());
}

TEST_F(PackTest, SingleQueryMeasurement) {
  StorageConfig config{35, 10};
  const PackedLayout layout =
      PackedLayout::Pack(lin_, facts_, config).value();
  const IoSimulator sim(layout);
  // The whole-grid query reads every page with one seek.
  GridQuery all{QueryClass{2, 2}, {0, 0}};
  const QueryIo io = sim.Measure(all);
  EXPECT_EQ(io.records, 48u);
  EXPECT_EQ(io.pages, layout.num_pages());
  EXPECT_EQ(io.seeks, 1u);
  // ceil(48 records * 10 B / 35 B pages) = 14: the normalization divisor
  // assumes perfect byte packing, so even a perfectly clustered layout can
  // exceed 1.0 when records don't tile pages exactly.
  EXPECT_EQ(io.min_pages, 14u);
  EXPECT_DOUBLE_EQ(io.NormalizedBlocks(), 16.0 / 14.0);
  // An empty query: the (0,0) cell.
  GridQuery empty{QueryClass{0, 0}, {0, 0}};
  const QueryIo none = sim.Measure(empty);
  EXPECT_EQ(none.records, 0u);
  EXPECT_EQ(none.pages, 0u);
  EXPECT_EQ(none.seeks, 0u);
}

TEST_F(PackTest, ClassMeasurementMatchesPerQueryMeasurement) {
  StorageConfig config{35, 10};
  const PackedLayout layout =
      PackedLayout::Pack(lin_, facts_, config).value();
  const IoSimulator sim(layout);
  const QueryClassLattice lat(*schema_);
  for (uint64_t ci = 0; ci < lat.size(); ++ci) {
    const QueryClass cls = lat.ClassAt(ci);
    const ClassIoStats stats = sim.MeasureClass(cls);
    ClassIoStats manual;
    manual.num_queries = NumQueriesInClass(*schema_, cls);
    for (const GridQuery& q : AllQueriesInClass(*schema_, cls)) {
      const QueryIo io = sim.Measure(q);
      if (io.records == 0) continue;
      ++manual.num_nonempty;
      manual.total_pages += io.pages;
      manual.total_seeks += io.seeks;
      manual.total_normalized += io.NormalizedBlocks();
    }
    EXPECT_EQ(stats.num_queries, manual.num_queries) << cls.ToString();
    EXPECT_EQ(stats.num_nonempty, manual.num_nonempty) << cls.ToString();
    EXPECT_EQ(stats.total_pages, manual.total_pages) << cls.ToString();
    EXPECT_EQ(stats.total_seeks, manual.total_seeks) << cls.ToString();
    EXPECT_NEAR(stats.total_normalized, manual.total_normalized, 1e-9)
        << cls.ToString();
  }
}

TEST_F(PackTest, WorkloadExpectation) {
  StorageConfig config{35, 10};
  const PackedLayout layout =
      PackedLayout::Pack(lin_, facts_, config).value();
  const IoSimulator sim(layout);
  const QueryClassLattice lat(*schema_);
  const auto per_class = sim.MeasureAllClasses();
  const Workload mu = Workload::Point(lat, QueryClass{2, 2}).value();
  const WorkloadIoStats io = IoSimulator::Expect(mu, per_class);
  EXPECT_DOUBLE_EQ(io.expected_seeks, 1.0);
  EXPECT_DOUBLE_EQ(io.expected_normalized_blocks, 16.0 / 14.0);
}

TEST(StorageRandomizedTest, ClassAggregationMatchesQueriesOnRandomData) {
  // Property: exact class aggregation == per-query measurement, on random
  // occupancy and a non-row-major order.
  auto a = Hierarchy::Uniform("a", {3, 2}).value();
  auto b = Hierarchy::Uniform("b", {2, 2}).value();
  auto schema = std::make_shared<StarSchema>(
      StarSchema::Make("r", {a, b}).value());
  Rng rng(71);
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    const uint64_t records = rng.Below(6);  // 0..5 records/cell
    for (uint64_t r = 0; r < records; ++r) {
      facts->AddRecord(schema->Unflatten(id), 1.0);
    }
  }
  auto lin = std::shared_ptr<const Linearization>(
      RowMajorOrder::Make(schema, {1, 0}).value());
  const PackedLayout layout =
      PackedLayout::Pack(lin, facts, StorageConfig{64, 10}).value();
  const IoSimulator sim(layout);
  const QueryClassLattice lat(*schema);
  for (uint64_t ci = 0; ci < lat.size(); ++ci) {
    const QueryClass cls = lat.ClassAt(ci);
    const ClassIoStats stats = sim.MeasureClass(cls);
    uint64_t seeks = 0, pages = 0, nonempty = 0;
    for (const GridQuery& q : AllQueriesInClass(*schema, cls)) {
      const QueryIo io = sim.Measure(q);
      if (io.records == 0) continue;
      ++nonempty;
      seeks += io.seeks;
      pages += io.pages;
    }
    EXPECT_EQ(stats.total_seeks, seeks) << cls.ToString();
    EXPECT_EQ(stats.total_pages, pages) << cls.ToString();
    EXPECT_EQ(stats.num_nonempty, nonempty) << cls.ToString();
  }
}

}  // namespace
}  // namespace snakes
