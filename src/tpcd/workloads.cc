#include "tpcd/workloads.h"

#include "util/logging.h"

namespace snakes {
namespace tpcd {

std::vector<double> RampProbabilities(int num_levels, Ramp ramp) {
  SNAKES_CHECK(num_levels >= 1);
  if (num_levels == 1) return {1.0};
  if (ramp == Ramp::kEven) {
    if (num_levels == 2) return {0.5, 0.5};
    if (num_levels == 3) return {0.33, 0.33, 0.34};
    return std::vector<double>(static_cast<size_t>(num_levels),
                               1.0 / num_levels);
  }
  std::vector<double> probs;
  if (num_levels == 2) {
    probs = {0.2, 0.8};
  } else if (num_levels == 3) {
    probs = {0.1, 0.3, 0.6};
  } else {
    // Ratio-3 geometric ramp, normalized (generalizes the paper's vectors).
    double w = 1.0, total = 0.0;
    probs.resize(static_cast<size_t>(num_levels));
    for (auto& p : probs) {
      p = w;
      total += w;
      w *= 3.0;
    }
    for (auto& p : probs) p /= total;
  }
  if (ramp == Ramp::kDown) {
    std::vector<double> reversed(probs.rbegin(), probs.rend());
    return reversed;
  }
  return probs;
}

namespace {

Ramp RampOfCode(int code) {
  switch (code) {
    case 0:
      return Ramp::kUp;
    case 1:
      return Ramp::kEven;
    default:
      return Ramp::kDown;
  }
}

const char* RampName(int code) {
  switch (code) {
    case 0:
      return "up";
    case 1:
      return "even";
    default:
      return "down";
  }
}

}  // namespace

Result<Workload> SectionSixWorkload(const QueryClassLattice& lattice, int id) {
  if (id < 1 || id > kNumWorkloads) {
    return Status::InvalidArgument("workload id must be 1..27");
  }
  if (lattice.num_dims() != 3) {
    return Status::InvalidArgument(
        "Section 6 workloads need the 3-dimensional TPC-D lattice");
  }
  const int index = id - 1;
  const int codes[3] = {index / 9, (index / 3) % 3, index % 3};
  std::vector<std::vector<double>> level_probs;
  for (int d = 0; d < 3; ++d) {
    level_probs.push_back(
        RampProbabilities(lattice.levels(d) + 1, RampOfCode(codes[d])));
  }
  return Workload::Product(lattice, level_probs);
}

Result<std::vector<Workload>> AllSectionSixWorkloads(
    const QueryClassLattice& lattice) {
  std::vector<Workload> all;
  all.reserve(kNumWorkloads);
  for (int id = 1; id <= kNumWorkloads; ++id) {
    SNAKES_ASSIGN_OR_RETURN(Workload w, SectionSixWorkload(lattice, id));
    all.push_back(std::move(w));
  }
  return all;
}

std::string DescribeWorkload(int id) {
  SNAKES_CHECK(id >= 1 && id <= kNumWorkloads);
  const int index = id - 1;
  std::string out = "parts:";
  out += RampName(index / 9);
  out += " supplier:";
  out += RampName((index / 3) % 3);
  out += " time:";
  out += RampName(index % 3);
  return out;
}

}  // namespace tpcd
}  // namespace snakes
