#include "hierarchy/star_schema.h"

#include "util/logging.h"
#include "util/math.h"

namespace snakes {

Result<StarSchema> StarSchema::Make(std::string name,
                                    std::vector<Hierarchy> dimensions) {
  if (dimensions.empty()) {
    return Status::InvalidArgument("star schema needs at least one dimension");
  }
  if (dimensions.size() > kMaxDimensions) {
    return Status::InvalidArgument("star schema limited to " +
                                   std::to_string(kMaxDimensions) +
                                   " dimensions");
  }
  StarSchema s;
  s.name_ = std::move(name);
  s.dims_ = std::move(dimensions);
  s.num_cells_ = 1;
  for (const auto& d : s.dims_) {
    s.num_cells_ = CheckedMul(s.num_cells_, d.num_leaves());
  }
  s.stride_.resize(s.dims_.size());
  uint64_t stride = 1;
  for (int d = s.num_dims() - 1; d >= 0; --d) {
    s.stride_[static_cast<size_t>(d)] = stride;
    stride = CheckedMul(stride, s.dims_[static_cast<size_t>(d)].num_leaves());
  }
  return s;
}

Result<StarSchema> StarSchema::Symmetric(int k, int levels, uint64_t fanout) {
  if (k < 1 || levels < 0) {
    return Status::InvalidArgument("Symmetric: k >= 1, levels >= 0 required");
  }
  std::vector<Hierarchy> dims;
  dims.reserve(static_cast<size_t>(k));
  for (int d = 0; d < k; ++d) {
    std::vector<uint64_t> fanouts(static_cast<size_t>(levels), fanout);
    SNAKES_ASSIGN_OR_RETURN(
        Hierarchy h,
        Hierarchy::Uniform(std::string(1, static_cast<char>('A' + d)),
                           std::move(fanouts)));
    dims.push_back(std::move(h));
  }
  return Make("symmetric", std::move(dims));
}

bool StarSchema::SameGrid(const StarSchema& other) const {
  if (num_dims() != other.num_dims()) return false;
  for (int d = 0; d < num_dims(); ++d) {
    if (extent(d) != other.extent(d)) return false;
  }
  return true;
}

CellId StarSchema::Flatten(const CellCoord& coord) const {
  SNAKES_DCHECK(static_cast<int>(coord.size()) == num_dims());
  CellId id = 0;
  for (int d = 0; d < num_dims(); ++d) {
    SNAKES_DCHECK(coord[static_cast<size_t>(d)] < extent(d));
    id += coord[static_cast<size_t>(d)] * stride_[static_cast<size_t>(d)];
  }
  return id;
}

CellCoord StarSchema::Unflatten(CellId id) const {
  SNAKES_DCHECK(id < num_cells_);
  CellCoord coord;
  coord.resize(static_cast<size_t>(num_dims()));
  for (int d = 0; d < num_dims(); ++d) {
    coord[static_cast<size_t>(d)] = id / stride_[static_cast<size_t>(d)];
    id %= stride_[static_cast<size_t>(d)];
  }
  return coord;
}

int StarSchema::total_levels() const {
  int total = 0;
  for (const auto& d : dims_) total += d.num_levels();
  return total;
}

uint64_t StarSchema::lattice_size() const {
  uint64_t size = 1;
  for (const auto& d : dims_) {
    size = CheckedMul(size, static_cast<uint64_t>(d.num_levels()) + 1);
  }
  return size;
}

}  // namespace snakes
