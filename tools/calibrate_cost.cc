// calibrate_cost — fit the CostModel coefficients to measured executions.
//
//   calibrate_cost [--samples PATH] [--coefficients PATH]
//                  [--queries N] [--reps N] [--seed S]
//                  [--orders N] [--scratch PATH]
//                  [--backends packed,micropartition]
//                  [--features seeks,pages,...]
//
// The in-repo calibration loop: generate a small TPC-D warehouse, plan the
// registered strategy families on the uniform workload, sweep sampled
// queries per (strategy, backend, lattice class) through IoSimulator (the
// features) and a real FileStore execution (the measured nanoseconds), then
// fit measured time against the features by ordinary least squares — no
// external solver. Writes the raw samples and the fitted coefficients as
// JSON; the coefficients file loads straight into CalibratedLinearModel::
// FromJson / the service's `costmodel calibrated <path>` verb. The scratch
// file defaults to a per-process file in the temp directory and is removed
// when the sweep ends.
//
// Exit status: 0 on a successful fit, 1 on any sweep or fit error (a
// singular design matrix is an error, never NaN coefficients).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "lattice/workload.h"
#include "tpcd/dbgen.h"
#include "util/result.h"
#include "util/text_table.h"

namespace snakes {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::string FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const std::string piece =
        s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int Run(int argc, char** argv) {
  const std::string samples_path =
      FlagValue(argc, argv, "--samples", "calibration_samples.json");
  const std::string coefficients_path =
      FlagValue(argc, argv, "--coefficients", "calibration_coefficients.json");
  const int queries_per_class =
      std::atoi(FlagValue(argc, argv, "--queries", "4").c_str());
  const int repetitions =
      std::atoi(FlagValue(argc, argv, "--reps", "3").c_str());
  const uint64_t seed = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--seed", "19990601").c_str()));
  const uint64_t orders = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--orders", "4000").c_str()));
  const std::string scratch = FlagValue(argc, argv, "--scratch", "");
  const std::vector<std::string> backend_names =
      SplitCommas(FlagValue(argc, argv, "--backends", "packed"));
  const std::vector<std::string> features =
      SplitCommas(FlagValue(argc, argv, "--features", "seeks,pages"));

  // Small warehouse: the sweep times thousands of real file reads, so the
  // default stays CI-sized while spanning every lattice class.
  tpcd::Config config;
  config.parts_per_mfgr = 4;
  config.num_mfgrs = 3;
  config.num_suppliers = 4;
  config.months_per_year = 6;
  config.num_years = 2;
  config.num_orders = orders;
  auto warehouse = tpcd::GenerateWarehouse(config, seed);
  if (!warehouse.ok()) return Fail(warehouse.status());
  const auto& schema = warehouse.value().schema;
  std::fprintf(stderr, "warehouse: %llu records\n",
               static_cast<unsigned long long>(
                   warehouse.value().facts->total_records()));

  // Every registered strategy family, materialized for the uniform workload
  // — the sweep wants layout diversity (different seek/page mixes), not a
  // recommendation.
  const ClusteringAdvisor advisor(schema);
  EvaluationRequest request{Workload::Uniform(advisor.Lattice())};
  auto plan = advisor.Plan(request);
  if (!plan.ok()) return Fail(plan.status());
  std::vector<std::shared_ptr<const Linearization>> strategies;
  for (const PlannedStrategy& s : plan.value().strategies) {
    strategies.push_back(s.linearization);
  }
  std::fprintf(stderr, "sweeping %zu strategies...\n", strategies.size());

  CalibrationSweepConfig sweep;
  sweep.queries_per_class = queries_per_class;
  sweep.repetitions = repetitions;
  sweep.seed = seed;
  sweep.scratch_path = scratch;
  sweep.backends.clear();
  for (const std::string& name : backend_names) {
    auto kind = ParseStorageBackendKind(name);
    if (!kind.ok()) return Fail(kind.status());
    sweep.backends.push_back(kind.value());
  }

  auto samples =
      CollectCalibrationSamples(warehouse.value().facts, strategies, sweep);
  if (!samples.ok()) return Fail(samples.status());
  std::fprintf(stderr, "collected %zu samples\n", samples.value().size());
  {
    std::ofstream out(samples_path);
    out << CalibrationSamplesToJson(samples.value(), sweep.storage);
    if (!out.good()) {
      return Fail(Status::Internal("failed to write " + samples_path));
    }
  }

  CalibrationFitOptions options;
  options.features = features;
  auto fit = FitCalibration(samples.value(), options);
  if (!fit.ok()) return Fail(fit.status());
  {
    std::ofstream out(coefficients_path);
    out << fit.value().ToJson() << "\n";
    if (!out.good()) {
      return Fail(Status::Internal("failed to write " + coefficients_path));
    }
  }

  std::printf("fit over %llu samples:\n",
              static_cast<unsigned long long>(fit.value().num_samples));
  std::printf("  intercept %s ms\n",
              FormatDouble(fit.value().intercept_ms, 6).c_str());
  for (const CostFeatureField& field : CostFeatureFields()) {
    const double coef = fit.value().coefficients_ms.*(field.member);
    if (coef == 0.0) continue;
    std::printf("  %-20s %s ms each\n", field.name,
                FormatDouble(coef, 6).c_str());
  }
  std::printf("  r_squared %s\n",
              FormatDouble(fit.value().r_squared, 4).c_str());
  std::printf("  median relative error %s\n",
              FormatDouble(fit.value().median_relative_error, 4).c_str());

  TextTable table({"class", "median rel error"});
  for (const auto& entry : fit.value().per_class_relative_error) {
    table.AddRow({entry.first, FormatDouble(entry.second, 4)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("wrote %s and %s\n", samples_path.c_str(),
              coefficients_path.c_str());
  return 0;
}

}  // namespace
}  // namespace snakes

int main(int argc, char** argv) { return snakes::Run(argc, argv); }
