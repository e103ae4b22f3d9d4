// Calibration quality on the TPC-D warehouse: fit a CalibratedLinearModel
// to measured file_store executions and check that (a) the fit explains the
// measurements — median relative error within the 25% bound — and (b) time
// predicted by the fitted model ranks the strategies the same way the
// measured wall clock does, at least at the top: the strategy the advisor
// would pick under the fitted model is the strategy that actually ran
// fastest.
//
// Setup: a small warehouse, every registered strategy family materialized
// for the uniform workload, a calibration sweep (features from IoSimulator,
// nanoseconds from FileStore::ExecuteTimed), the in-repo least-squares fit.
// Per strategy, the sweep's samples aggregate into a measured mean and a
// predicted mean over identical feature vectors, so the ranking comparison
// is sampling-noise-only. Because the top strategies can genuinely tie
// (path vs its snaked twin differ by a few percent, inside timer noise),
// agreement is scored as measured *regret*: the strategy the model picks
// must run within 10% of the measured-fastest one. The advisor's own
// expected_ms ranking (fitted model pricing measured WorkloadIoStats) is
// reported alongside.
//
// Writes BENCH_calibration.json; SNAKES_CHECKs both guards.
//
//   $ ./micro_calibration

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "lattice/workload.h"
#include "tpcd/dbgen.h"
#include "util/logging.h"
#include "util/text_table.h"

namespace snakes {
namespace {

struct StrategyTiming {
  double measured_ms = 0.0;
  double predicted_ms = 0.0;
  uint64_t samples = 0;
};

void Run() {
  tpcd::Config config;
  config.parts_per_mfgr = 4;
  config.num_mfgrs = 3;
  config.num_suppliers = 4;
  config.months_per_year = 6;
  config.num_years = 2;
  config.num_orders = 4'000;
  const auto warehouse = tpcd::GenerateWarehouse(config).ValueOrDie();
  const ClusteringAdvisor advisor(warehouse.schema);
  const Workload uniform = Workload::Uniform(advisor.Lattice());

  EvaluationRequest plan_request{uniform};
  const auto plan = advisor.Plan(plan_request).ValueOrDie();
  std::vector<std::shared_ptr<const Linearization>> strategies;
  for (const PlannedStrategy& s : plan.strategies) {
    strategies.push_back(s.linearization);
  }
  std::fprintf(stderr, "sweeping %zu strategies...\n", strategies.size());

  CalibrationSweepConfig sweep;
  sweep.queries_per_class = 4;
  sweep.repetitions = 3;
  const auto samples =
      CollectCalibrationSamples(warehouse.facts, strategies, sweep)
          .ValueOrDie();
  const auto fit = FitCalibration(samples).ValueOrDie();
  const CalibratedLinearModel model = fit.ToModel();
  std::fprintf(stderr, "fit: r^2 %.4f, median rel error %.4f over %llu\n",
               fit.r_squared, fit.median_relative_error,
               static_cast<unsigned long long>(fit.num_samples));

  // Per-strategy aggregates over identical samples: the fitted model and
  // the wall clock price the same feature vectors.
  std::map<std::string, StrategyTiming> by_strategy;
  for (const CalibrationSample& sample : samples) {
    StrategyTiming& t = by_strategy[sample.strategy];
    t.measured_ms += sample.measured_ns * 1e-6;
    t.predicted_ms +=
        model.EstimateMs(sample.features, sweep.storage.page_size_bytes);
    ++t.samples;
  }
  std::string top_measured, top_predicted;
  double best_measured = 0.0, best_predicted = 0.0;
  TextTable table({"strategy", "samples", "measured ms", "predicted ms"});
  for (auto& [name, t] : by_strategy) {
    t.measured_ms /= static_cast<double>(t.samples);
    t.predicted_ms /= static_cast<double>(t.samples);
    if (top_measured.empty() || t.measured_ms < best_measured) {
      top_measured = name;
      best_measured = t.measured_ms;
    }
    if (top_predicted.empty() || t.predicted_ms < best_predicted) {
      top_predicted = name;
      best_predicted = t.predicted_ms;
    }
    table.AddRow({name, std::to_string(t.samples),
                  FormatDouble(t.measured_ms, 5),
                  FormatDouble(t.predicted_ms, 5)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("top-1 measured:  %s\ntop-1 predicted: %s\n",
              top_measured.c_str(), top_predicted.c_str());

  // The advisor's own view under the fitted model: measured WorkloadIoStats
  // priced into expected_ms (the ranking key stays the seek surrogate).
  EvaluationRequest request{uniform};
  request.measure_storage = true;
  request.facts = warehouse.facts;
  request.cost_model = std::make_shared<CalibratedLinearModel>(model);
  const auto rec = advisor.Advise(request).ValueOrDie();
  std::string advisor_top_ms;
  double advisor_best_ms = 0.0;
  for (const StrategyReport& report : rec.ranked) {
    if (advisor_top_ms.empty() || report.expected_ms < advisor_best_ms) {
      advisor_top_ms = report.name;
      advisor_best_ms = report.expected_ms;
    }
  }
  std::printf("advisor min expected_ms: %s (%.5f ms/query)\n",
              advisor_top_ms.c_str(), advisor_best_ms);

  SNAKES_CHECK(fit.median_relative_error <= 0.25)
      << "calibrated model median relative error "
      << fit.median_relative_error << " exceeds the 25% bound";
  // Top-1 agreement up to measured near-ties: picking by the fitted model
  // must cost <= 10% measured regret against the actual fastest strategy.
  const double regret =
      (by_strategy.at(top_predicted).measured_ms - best_measured) /
      best_measured;
  std::printf("model-pick measured regret: %.2f%%\n", 100.0 * regret);
  SNAKES_CHECK(regret <= 0.10)
      << "fitted model picks " << top_predicted << " which ran "
      << 100.0 * regret << "% slower than the measured-fastest "
      << top_measured;

  std::string json = "{\n  \"bench\": \"calibration\",\n";
  json += "  \"records\": " + std::to_string(warehouse.facts->total_records()) +
          ",\n";
  json += "  \"strategies\": " + std::to_string(by_strategy.size()) + ",\n";
  json += "  \"samples\": " + std::to_string(samples.size()) + ",\n";
  json += "  \"r_squared\": " + FormatDouble(fit.r_squared, 6) + ",\n";
  json += "  \"median_relative_error\": " +
          FormatDouble(fit.median_relative_error, 6) + ",\n";
  json += "  \"required_median_relative_error\": 0.25,\n";
  json += "  \"top1_measured\": \"" + top_measured + "\",\n";
  json += "  \"top1_predicted\": \"" + top_predicted + "\",\n";
  json += "  \"top1_exact_agreement\": " +
          std::string(top_measured == top_predicted ? "true" : "false") +
          ",\n";
  json += "  \"model_pick_measured_regret\": " + FormatDouble(regret, 6) +
          ",\n";
  json += "  \"required_regret\": 0.1,\n";
  json += "  \"advisor_min_expected_ms_strategy\": \"" + advisor_top_ms +
          "\",\n";
  json += "  \"per_strategy\": [\n";
  size_t i = 0;
  for (const auto& [name, t] : by_strategy) {
    json += "    {\"strategy\": \"" + name +
            "\", \"samples\": " + std::to_string(t.samples) +
            ", \"measured_ms\": " + FormatDouble(t.measured_ms, 6) +
            ", \"predicted_ms\": " + FormatDouble(t.predicted_ms, 6) + "}";
    json += ++i < by_strategy.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  const char* path = "BENCH_calibration.json";
  std::ofstream out(path);
  out << json;
  SNAKES_CHECK(out.good()) << "failed to write " << path;
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace snakes

int main() {
  snakes::Run();
  return 0;
}
