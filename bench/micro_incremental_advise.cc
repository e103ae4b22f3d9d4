// Incremental re-advise payoff: after a small workload drift, re-advising
// through the memoized state must cost >= 5x fewer per-class cost
// evaluations than advising cold — while recommending bit-identically to a
// cold Advise on the drifted workload.
//
// Setup: the Table-4 LineItem schema (no fact table; the guard is about the
// analytic pipeline) and Section-6 workload 7. The cold advise populates
// the state's per-class cost memo; the drift then moves 10% of probability
// mass toward workload 21 (total variation <= 0.1) and the warm advise
// re-evaluates only classes never costed before. Because per-class costs
// are workload-independent integers and the weighted summation is re-run
// exactly, the warm recommendation must match a from-scratch Advise on the
// drifted workload bit for bit: same ranking, same expected-cost doubles,
// same DP paths.
//
// Timing guard: the cold incremental advise fills an empty cost cache
// through the same class-cost producer as a fresh Advise, so it must cost
// no more than 1.2x a fresh Advise. Each leg runs once as a warm-up and then
// kRepetitions times; the guard compares medians. Writes
// BENCH_incremental_advise.json with the host stamp (cores, build type,
// commit).
//
//   $ ./micro_incremental_advise [--commit REV]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "lattice/workload.h"
#include "lattice/workload_delta.h"
#include "obs/metrics.h"
#include "tpcd/schema.h"
#include "tpcd/workloads.h"
#include "util/logging.h"
#include "util/text_table.h"

namespace snakes {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepetitions = 9;
constexpr double kAllowedColdFreshRatio = 1.2;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + FormatDouble(values[i], 3);
  }
  return out + "]";
}

void Run(const std::string& commit) {
  const tpcd::Config config;  // the paper's 200 x 10 x 84 grid
  const auto schema = tpcd::BuildSharedSchema(config).ValueOrDie();
  const QueryClassLattice lattice(*schema);
  const ClusteringAdvisor advisor(schema);

  const Workload base = tpcd::SectionSixWorkload(lattice, 7).ValueOrDie();
  const Workload target = tpcd::SectionSixWorkload(lattice, 21).ValueOrDie();

  // Drift 10% of the mass toward the target: total variation <= 0.1.
  std::vector<double> p(base.size());
  for (uint64_t i = 0; i < base.size(); ++i) {
    p[i] = 0.9 * base.probability_at(i) + 0.1 * target.probability_at(i);
  }
  const Workload drifted =
      Workload::FromDense(lattice, std::move(p), /*normalize=*/true)
          .ValueOrDie();
  const double tv = WorkloadDelta::Between(base, drifted)
                        .ValueOrDie()
                        .total_variation();
  SNAKES_CHECK(tv <= 0.1) << "drift perturbs " << tv << " of the mass";

  // One warm-up round, then kRepetitions timed rounds. Every round starts
  // from an empty state, so its first advise is cold.
  std::vector<double> cold_ms, warm_ms, fresh_ms;
  uint64_t cold_evals = 0, warm_evals = 0, warm_hits = 0;
  bool identical = true;
  std::string cold_best, warm_best, fresh_best;
  for (int round = 0; round <= kRepetitions; ++round) {
    IncrementalAdvisorState state;
    auto start = Clock::now();
    const Recommendation cold_rec =
        advisor.AdviseIncremental(EvaluationRequest{base}, &state)
            .ValueOrDie();
    const double cold = MsSince(start);
    cold_best = cold_rec.best().name;
    cold_evals = state.last_cost_evaluations;

    start = Clock::now();
    const Recommendation warm_rec =
        advisor.AdviseIncremental(EvaluationRequest{drifted}, &state)
            .ValueOrDie();
    const double warm = MsSince(start);
    warm_best = warm_rec.best().name;
    warm_evals = state.last_cost_evaluations;
    warm_hits = state.last_cost_hits;

    // The reference: a from-scratch Advise on the drifted workload.
    start = Clock::now();
    const Recommendation fresh_rec =
        advisor.Advise(EvaluationRequest{drifted}).ValueOrDie();
    const double fresh = MsSince(start);
    fresh_best = fresh_rec.best().name;
    identical = identical && BitIdenticalRecommendations(warm_rec, fresh_rec);
    if (round == 0) continue;  // warm-up
    cold_ms.push_back(cold);
    warm_ms.push_back(warm);
    fresh_ms.push_back(fresh);
  }
  const double cold_median = Median(cold_ms);
  const double warm_median = Median(warm_ms);
  const double fresh_median = Median(fresh_ms);
  const double cold_fresh_ratio = cold_median / fresh_median;

  const double ratio = static_cast<double>(cold_evals) /
                       static_cast<double>(warm_evals == 0 ? 1 : warm_evals);

  TextTable table({"advise", "cost evals", "cache hits", "median ms", "best"});
  table.AddRow({"cold (workload 7)", std::to_string(cold_evals), "0",
                FormatDouble(cold_median, 1), cold_best});
  table.AddRow({"warm (10% drift)", std::to_string(warm_evals),
                std::to_string(warm_hits), FormatDouble(warm_median, 1),
                warm_best});
  table.AddRow({"fresh (reference)", std::to_string(cold_evals), "0",
                FormatDouble(fresh_median, 1), fresh_best});
  std::printf("%s\n", table.Render().c_str());
  std::printf("drift tv=%.4f; %llu cold vs %llu warm evaluations (%.0fx); "
              "warm == fresh: %s\n",
              tv, static_cast<unsigned long long>(cold_evals),
              static_cast<unsigned long long>(warm_evals), ratio,
              identical ? "bit-identical" : "DIVERGED");
  std::printf("cold / fresh = %.2fx (allowed %.2fx), medians of %d after "
              "one warm-up\n",
              cold_fresh_ratio, kAllowedColdFreshRatio, kRepetitions);

  SNAKES_CHECK(identical)
      << "incremental re-advise diverged from the cold reference";
  SNAKES_CHECK(ratio >= 5.0)
      << "incremental re-advise only saves " << ratio
      << "x cost evaluations (need >= 5x)";
  SNAKES_CHECK(cold_fresh_ratio <= kAllowedColdFreshRatio)
      << "cold incremental advise takes " << cold_fresh_ratio
      << "x a fresh Advise (allowed " << kAllowedColdFreshRatio << "x)";

  std::string json = "{\n  \"bench\": \"incremental_advise\",\n";
  json += "  \"host\": {\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"build_type\": \"" + SNAKES_BENCH_BUILD_TYPE +
          "\", \"commit\": \"" + JsonEscape(commit) + "\"},\n";
  json += "  \"repetitions\": " + std::to_string(kRepetitions) + ",\n";
  json += "  \"cells\": " + std::to_string(schema->num_cells()) + ",\n";
  json += "  \"classes\": " + std::to_string(lattice.size()) + ",\n";
  json += "  \"drift_total_variation\": " + FormatDouble(tv, 4) + ",\n";
  json += "  \"cold_cost_evaluations\": " + std::to_string(cold_evals) + ",\n";
  json += "  \"warm_cost_evaluations\": " + std::to_string(warm_evals) + ",\n";
  json += "  \"warm_cache_hits\": " + std::to_string(warm_hits) + ",\n";
  json += "  \"evaluation_ratio\": " + FormatDouble(ratio, 2) + ",\n";
  json += "  \"required_ratio\": 5.0,\n";
  json += "  \"cold_ms\": " + FormatDouble(cold_median, 3) + ",\n";
  json += "  \"warm_ms\": " + FormatDouble(warm_median, 3) + ",\n";
  json += "  \"fresh_ms\": " + FormatDouble(fresh_median, 3) + ",\n";
  json += "  \"cold_ms_runs\": " + JsonArray(cold_ms) + ",\n";
  json += "  \"fresh_ms_runs\": " + JsonArray(fresh_ms) + ",\n";
  json += "  \"cold_fresh_ratio\": " + FormatDouble(cold_fresh_ratio, 3) +
          ",\n";
  json += "  \"allowed_cold_fresh_ratio\": " +
          FormatDouble(kAllowedColdFreshRatio, 2) + ",\n";
  json += "  \"bit_identical\": ";
  json += identical ? "true" : "false";
  json += ",\n  \"best\": \"" + warm_best + "\"\n}\n";
  const char* path = "BENCH_incremental_advise.json";
  std::ofstream out(path);
  out << json;
  SNAKES_CHECK(out.good()) << "failed to write " << path;
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace snakes

int main(int argc, char** argv) {
  std::string commit = "unknown";
  if (argc == 3 && std::strcmp(argv[1], "--commit") == 0) {
    commit = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: micro_incremental_advise [--commit REV]\n");
    return 2;
  }
  snakes::Run(commit);
  return 0;
}
