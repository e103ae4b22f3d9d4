#ifndef SNAKES_TESTS_CELL_WALK_ORACLE_H_
#define SNAKES_TESTS_CELL_WALK_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lattice/grid_query.h"
#include "storage/backend.h"

namespace snakes {

/// Reference I/O of one grid query, for checking IoSimulator::Measure: the
/// ranks of every cell in the query box, sorted, then scanned through the
/// backend's public per-cell page accessors, opening a seek at every page
/// gap. Shares no code with the simulator's run decomposition.
inline QueryIo CellWalkIo(const StorageBackend& backend,
                          const GridQuery& query) {
  const Linearization& lin = backend.linearization();
  const CellBox box = BoxOf(lin.schema(), query);
  std::vector<uint64_t> ranks;
  CellCoord coord = box.lo;
  for (;;) {
    ranks.push_back(lin.RankOf(coord));
    size_t d = coord.size();
    while (d > 0 && ++coord[d - 1] == box.hi[d - 1]) {
      coord[d - 1] = box.lo[d - 1];
      --d;
    }
    if (d == 0) break;
  }
  std::sort(ranks.begin(), ranks.end());

  QueryIo io;
  int64_t last_page = -1;
  for (const uint64_t rank : ranks) {
    if (backend.CellEmpty(rank)) continue;
    const auto first = static_cast<int64_t>(backend.CellFirstPage(rank));
    const auto last = static_cast<int64_t>(backend.CellLastPage(rank));
    io.records += backend.CellRecords(rank);
    if (last_page < 0 || first > last_page + 1) ++io.seeks;
    if (last > last_page) {
      io.pages +=
          static_cast<uint64_t>(last - std::max(last_page + 1, first) + 1);
      last_page = last;
    }
  }
  const uint64_t bytes = io.records * backend.config().record_size_bytes;
  const uint64_t page = backend.config().page_size_bytes;
  io.min_pages = (bytes + page - 1) / page;
  return io;
}

}  // namespace snakes

#endif  // SNAKES_TESTS_CELL_WALK_ORACLE_H_
