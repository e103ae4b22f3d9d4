#ifndef SNAKES_TPCD_SCHEMA_H_
#define SNAKES_TPCD_SCHEMA_H_

#include <cstdint>
#include <memory>

#include "hierarchy/star_schema.h"
#include "util/result.h"

namespace snakes {
namespace tpcd {

/// Shape of the TPC-D–style warehouse of Section 6.1. The fact table is
/// LineItem; the dimensions and hierarchies are
///   parts:    part(0)     -> manufacturer(1) -> all(2),  fanouts (parts_per_mfgr, num_mfgrs)
///   supplier: supplier(0) -> all(1),                     fanout  (num_suppliers)
///   time:     month(0)    -> year(1) -> all(2),          fanouts (months_per_year, num_years)
/// matching the paper's "12 months, 7 years, 5 manufacturers supplying an
/// average of 40 parts, and 10 suppliers". `parts_per_mfgr` is the fanout
/// swept by Tables 5 and 6 (4 / 10 / 40).
struct Config {
  uint64_t parts_per_mfgr = 40;
  uint64_t num_mfgrs = 5;
  uint64_t num_suppliers = 10;
  uint64_t months_per_year = 12;
  uint64_t num_years = 7;

  /// LineItem generation scale: the expected number of order rows; each
  /// order carries 1..7 lineitems (TPC-D's L_ORDERKEY multiplicity), so the
  /// fact table holds ~4x this many records. The paper does not state its
  /// TPC-D scale factor; the default (~1.6M lineitems, TPC-D SF ~0.27,
  /// ~9.5 records / ~1.2 KB per cell of the 200x10x84 grid) is calibrated so
  /// the measured I/O regime matches the magnitudes Tables 4-6 report: the
  /// snaked optimal path wins seeks nearly everywhere with single-digit
  /// averages, and the worst row-major reads ~4x the minimum blocks at
  /// fanout 40. bench/ablation_density sweeps this knob; at much higher
  /// density page-level seeks converge to the cell-level cost model, at
  /// much lower density scattered queries degrade into sequential scans.
  uint64_t num_orders = 400'000;

  /// Optional Zipf exponent skewing part popularity (0 = uniform, the TPC-D
  /// default). An extension knob for sensitivity studies.
  double part_skew_theta = 0.0;

  /// A CI-sized warehouse (12 parts, 4 suppliers, 12 months) of `orders`
  /// orders: every strategy family measures in well under a second.
  static Config Small(uint64_t orders) { return {4, 3, 4, 6, 2, orders}; }

  uint64_t num_parts() const { return parts_per_mfgr * num_mfgrs; }
  uint64_t num_months() const { return months_per_year * num_years; }
};

/// Dimension indices of the TPC-D schema, in schema order.
inline constexpr int kPartsDim = 0;
inline constexpr int kSupplierDim = 1;
inline constexpr int kTimeDim = 2;

/// Builds the 3-dimensional star schema for `config`.
Result<StarSchema> BuildSchema(const Config& config);

/// Convenience: BuildSchema wrapped in a shared_ptr.
Result<std::shared_ptr<const StarSchema>> BuildSharedSchema(
    const Config& config);

}  // namespace tpcd
}  // namespace snakes

#endif  // SNAKES_TPCD_SCHEMA_H_
