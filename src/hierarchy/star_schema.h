#ifndef SNAKES_HIERARCHY_STAR_SCHEMA_H_
#define SNAKES_HIERARCHY_STAR_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hierarchy/hierarchy.h"
#include "util/fixed_vector.h"
#include "util/result.h"

namespace snakes {

/// A cell coordinate in the k-dimensional data grid: one leaf index per
/// dimension.
using CellCoord = FixedVector<uint64_t, kMaxDimensions>;

/// A flattened cell id in [0, num_cells()). The flattening is row-major with
/// the *last* dimension varying fastest; it is a storage-independent identity
/// for cells, not a clustering order.
using CellId = uint64_t;

/// A star schema: k dimensions, each with a balanced level hierarchy, viewed
/// together as a k-dimensional grid of cells (the cross product of the leaf
/// domains). The fact table conceptually assigns zero or more records to each
/// cell; this class only describes the geometry.
class StarSchema {
 public:
  /// Builds a schema from 1..kMaxDimensions dimensions. Fails if the cell
  /// count would overflow uint64.
  static Result<StarSchema> Make(std::string name,
                                 std::vector<Hierarchy> dimensions);

  /// Convenience: the paper's representative schema — `k` dimensions, each a
  /// complete `levels`-level hierarchy of uniform `fanout` (Section 5's
  /// square binary grids are Symmetric(2, n, 2)).
  static Result<StarSchema> Symmetric(int k, int levels, uint64_t fanout);

  const std::string& name() const { return name_; }
  int num_dims() const { return static_cast<int>(dims_.size()); }
  const Hierarchy& dim(int d) const { return dims_[static_cast<size_t>(d)]; }

  /// Total number of grid cells (product of leaf counts).
  uint64_t num_cells() const { return num_cells_; }

  /// Extent (leaf count) of dimension `d`.
  uint64_t extent(int d) const { return dims_[static_cast<size_t>(d)].num_leaves(); }

  /// True iff `other` has the same number of dimensions with the same
  /// extents, so both flatten every coordinate to the same cell id. Cell
  /// counts alone cannot tell a 6x4 grid from a 4x6 one.
  bool SameGrid(const StarSchema& other) const;

  /// Flattens a coordinate to a cell id (last dimension fastest).
  CellId Flatten(const CellCoord& coord) const;

  /// Inverse of Flatten.
  CellCoord Unflatten(CellId id) const;

  /// Sum over dimensions of hierarchy levels (the paper's "total number of
  /// hierarchy levels"); the lattice has prod(l_d + 1) points.
  int total_levels() const;

  /// Number of points in the query-class lattice, prod_d (l_d + 1).
  uint64_t lattice_size() const;

 private:
  StarSchema() = default;

  std::string name_;
  std::vector<Hierarchy> dims_;
  uint64_t num_cells_ = 1;
  // stride_[d] = product of extents of dimensions after d.
  std::vector<uint64_t> stride_;
};

}  // namespace snakes

#endif  // SNAKES_HIERARCHY_STAR_SCHEMA_H_
