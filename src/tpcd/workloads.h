#ifndef SNAKES_TPCD_WORKLOADS_H_
#define SNAKES_TPCD_WORKLOADS_H_

#include <string>
#include <vector>

#include "lattice/workload.h"
#include "util/result.h"

namespace snakes {
namespace tpcd {

/// Per-dimension level-probability ramps of Section 6.2: the workload
/// generator divides each dimension's probability mass across its levels
/// either evenly, ramping up (mass toward high/coarse levels), or ramping
/// down (mass toward low/fine levels).
enum class Ramp {
  kUp = 0,    // 3 levels: (0.1, 0.3, 0.6); 2 levels: (0.2, 0.8)
  kEven = 1,  // 3 levels: (0.33, 0.33, 0.34); 2 levels: (0.5, 0.5)
  kDown = 2,  // 3 levels: (0.6, 0.3, 0.1); 2 levels: (0.8, 0.2)
};

/// The probability of each of the `num_levels` lattice levels under `ramp`.
/// Uses the paper's exact vectors for 2 and 3 levels and a ratio-3 geometric
/// ramp for other level counts.
std::vector<double> RampProbabilities(int num_levels, Ramp ramp);

/// Number of Section-6 workloads; ids run 1..kNumWorkloads.
constexpr int kNumWorkloads = 27;

/// One of the paper's 27 product-form workloads over a 3-dimensional
/// lattice. Ids run 1..27 as
///   id = 1 + 9 * ramp(parts) + 3 * ramp(supplier) + ramp(time)
/// with Ramp codes up=0, even=1, down=2; this numbering makes workload 7 =
/// (parts up, supplier down, time up), the workload Section 6.3 singles out
/// ("low probabilities in lower levels of the time and parts hierarchies ...
/// the opposite in the supplier dimension").
Result<Workload> SectionSixWorkload(const QueryClassLattice& lattice, int id);

/// All 27 workloads, in id order.
Result<std::vector<Workload>> AllSectionSixWorkloads(
    const QueryClassLattice& lattice);

/// "parts:up supplier:down time:up" — the ramp assignment behind `id`.
std::string DescribeWorkload(int id);

}  // namespace tpcd
}  // namespace snakes

#endif  // SNAKES_TPCD_WORKLOADS_H_
