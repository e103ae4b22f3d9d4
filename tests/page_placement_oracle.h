#ifndef SNAKES_TESTS_PAGE_PLACEMENT_ORACLE_H_
#define SNAKES_TESTS_PAGE_PLACEMENT_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "curves/linearization.h"
#include "storage/backend.h"
#include "storage/fact_table.h"

namespace snakes {

/// Reference page spans of a packed fact table, for checking the prefix-sum
/// arithmetic of StorageBackend: the record-by-record placement loop of
/// Section 6.1, closing a page whenever its remainder cannot hold a whole
/// record. Shares no code with the backend.
struct PagePlacement {
  // Indexed by rank; empty cells have first_page > last_page.
  std::vector<uint64_t> first_page;
  std::vector<uint64_t> last_page;
  std::vector<uint32_t> records;
  uint64_t num_pages = 0;

  /// Records and page span of ranks [start, start + len), by scanning the
  /// cells; an empty range keeps the inverted span {1, 0}.
  StorageBackend::RangeIo Range(uint64_t start, uint64_t len) const {
    StorageBackend::RangeIo io;
    for (uint64_t rank = start; rank < start + len; ++rank) {
      if (records[rank] == 0) continue;
      if (io.records == 0) io.first_page = first_page[rank];
      io.last_page = last_page[rank];
      io.records += records[rank];
    }
    return io;
  }
};

inline PagePlacement PlacePages(const Linearization& lin,
                                const FactTable& facts,
                                const StorageConfig& config) {
  const uint64_t n = lin.num_cells();
  PagePlacement out;
  out.first_page.resize(n);
  out.last_page.resize(n);
  out.records.resize(n);
  uint64_t page = 0;
  uint64_t used = 0;  // bytes used on the current page
  for (uint64_t rank = 0; rank < n; ++rank) {
    const uint32_t records =
        facts.count(lin.schema().Flatten(lin.CellAt(rank)));
    out.records[rank] = records;
    out.first_page[rank] = 1;
    out.last_page[rank] = 0;
    for (uint32_t placed = 0; placed < records; ++placed) {
      if (config.page_size_bytes - used < config.record_size_bytes) {
        ++page;
        used = 0;
      }
      if (placed == 0) out.first_page[rank] = page;
      used += config.record_size_bytes;
    }
    if (records > 0) out.last_page[rank] = page;
  }
  out.num_pages = page + (used > 0 ? 1 : 0);
  return out;
}

}  // namespace snakes

#endif  // SNAKES_TESTS_PAGE_PLACEMENT_ORACLE_H_
