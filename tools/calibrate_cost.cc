// snakes_cli calibrate — fit the CostModel coefficients to measured
// executions.
//
//   snakes_cli calibrate [--flag value]...   (--help lists the flags)
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
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/spec.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "lattice/workload.h"
#include "tools/flags.h"
#include "tpcd/dbgen.h"
#include "util/result.h"
#include "util/text_table.h"

namespace snakes {
namespace {

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  for (std::string piece; std::getline(in, piece, ',');) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

}  // namespace

int RunCalibrate(int argc, char** argv) {
  std::string samples_path = "calibration_samples.json",
              coefficients_path = "calibration_coefficients.json",
              backends = "packed", feature_list = "seeks,pages";
  uint64_t orders = 4000;
  CalibrationSweepConfig sweep;  // its defaults are the flags' defaults
  FlagSet flags("snakes_cli calibrate");
  flags.Text("--samples", &samples_path, "raw samples JSON output");
  flags.Text("--coefficients", &coefficients_path,
             "fitted coefficients JSON output");
  flags.Int("--queries", &sweep.queries_per_class,
            "sampled queries per (strategy, backend, class)", 1);
  flags.Int("--reps", &sweep.repetitions, "timed executions per query", 1);
  flags.Uint64("--seed", &sweep.seed, "warehouse and query-sampling seed");
  flags.Uint64("--orders", &orders, "TPC-D orders to generate");
  flags.Text("--scratch", &sweep.scratch_path,
             "scratch file for the sweep (default: a temp file)");
  flags.Text("--backends", &backends, "comma-separated storage backends");
  flags.Text("--features", &feature_list, "comma-separated fit features");
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;
  const std::vector<std::string> features = SplitCommas(feature_list);
  sweep.backends.clear();
  for (const std::string& name : SplitCommas(backends)) {
    auto kind = ParseStorageBackendKind(name);
    if (!kind.ok()) return flags.UsageError(kind.status().message());
    sweep.backends.push_back(kind.value());
  }

  // Small warehouse: the sweep times thousands of real file reads, so the
  // default stays CI-sized while spanning every lattice class.
  auto warehouse =
      tpcd::GenerateWarehouse(tpcd::Config::Small(orders), sweep.seed);
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

  auto samples =
      CollectCalibrationSamples(warehouse.value().facts, strategies, sweep);
  if (!samples.ok()) return Fail(samples.status());
  std::fprintf(stderr, "collected %zu samples\n", samples.value().size());
  const std::string samples_json =
      CalibrationSamplesToJson(samples.value(), sweep.storage);
  if (Status s = WriteStringToFile(samples_path, samples_json); !s.ok()) {
    return Fail(s);
  }

  CalibrationFitOptions options;
  options.features = features;
  auto fit = FitCalibration(samples.value(), options);
  if (!fit.ok()) return Fail(fit.status());
  if (Status s = WriteStringToFile(coefficients_path, fit->ToJson() + "\n");
      !s.ok()) {
    return Fail(s);
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

}  // namespace snakes
