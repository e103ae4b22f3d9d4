// The paper's Section-2 warehouse, end to end and on real disk pages:
// build the jeans/location star schema WITH member labels (the dimension
// tables of Figure 1), load sales records, cluster the fact file with the
// advisor's snaked optimal path, write an actual binary file, and run the
// paper's queries Q1 and Q2 — typed as text — against it.
//
//   $ ./sales_queries

#include <cstdio>
#include <memory>
#include <vector>

#include "core/advisor.h"
#include "core/query_parser.h"
#include "cost/cost_model.h"
#include "hierarchy/dimension_table.h"
#include "storage/file_store.h"
#include "storage/pager.h"
#include "util/rng.h"

using namespace snakes;

int main() {
  // Dimension tables, exactly Figure 1's members.
  const DimensionTable location =
      DimensionTable::Make(
          Hierarchy::Uniform("location", {2, 2}, {"city", "state", "all"})
              .ValueOrDie(),
          {{"toronto", "ottawa", "albany", "nyc"}, {"ONT", "NY"}, {"any"}})
          .ValueOrDie();
  const DimensionTable jeans =
      DimensionTable::Make(
          Hierarchy::Uniform("jeans", {2, 2}, {"style", "type", "all"})
              .ValueOrDie(),
          {{"men's levi's", "women's levi's", "men's gitano",
            "women's gitano"},
           {"levi's", "gitano"},
           {"any jeans"}})
          .ValueOrDie();
  const std::vector<DimensionTable> tables{location, jeans};
  auto schema = std::make_shared<StarSchema>(
      StarSchema::Make("sales", {location.hierarchy(), jeans.hierarchy()})
          .ValueOrDie());

  // Sales records (amounts are the measure; several rows per cell).
  auto facts = std::make_shared<FactTable>(schema);
  Rng rng(1999);
  for (int r = 0; r < 5000; ++r) {
    CellCoord coord;
    coord.resize(2);
    coord[0] = rng.Below(4);
    coord[1] = rng.Below(4);
    facts->AddRecord(coord, 10.0 + static_cast<double>(rng.Below(90)));
  }

  // Expected workload: Q1-style state x type queries dominate, with some
  // Q2-style state rollups and point lookups.
  const ClusteringAdvisor advisor(schema);
  const Workload mu =
      Workload::FromMasses(advisor.Lattice(),
                           {{QueryClass{1, 1}, 0.5},
                            {QueryClass{1, 2}, 0.3},
                            {QueryClass{0, 0}, 0.2}})
          .ValueOrDie();
  auto order = advisor.RecommendedOrder(mu).ValueOrDie();
  std::printf("clustering: %s\n", order->name().c_str());

  // Pack and write a real file (tiny pages so the toy data spans several).
  auto layout = std::make_shared<PackedLayout>(
      PackedLayout::Pack(std::move(order), facts, StorageConfig{512, 32})
          .ValueOrDie());
  const std::string path = "/tmp/snakes_sales.bin";
  auto store = FileStore::Create(path, layout).ValueOrDie();
  std::printf("wrote %llu bytes (%llu pages) to %s\n\n",
              static_cast<unsigned long long>(store.file_bytes()),
              static_cast<unsigned long long>(layout->num_pages()),
              path.c_str());

  // The paper's queries, as text.
  const CostModel& disk = *DefaultCostModel();
  for (const char* text : {
           "location=NY jeans=levi's",  // Q1
           "location=ONT",              // Q2 (grouped fetch)
           "location.city=toronto jeans=\"women's gitano\"",
           "",  // full scan
       }) {
    const GridQuery q =
        ParseGridQuery(*schema, tables, text).ValueOrDie();
    const QueryAnswer a = store.Execute(q).ValueOrDie();
    std::printf(
        "select sum(sale) where %-45s -> class %s: SUM=%9.0f over %4llu "
        "rows; %3llu pages, %2llu seeks (~%.1f ms)\n",
        text[0] ? text : "(nothing: whole grid)", q.cls.ToString().c_str(),
        a.sum, static_cast<unsigned long long>(a.count),
        static_cast<unsigned long long>(a.io.pages),
        static_cast<unsigned long long>(a.io.seeks),
        disk.QueryMs(a.io, layout->config().page_size_bytes));
  }
  return 0;
}
