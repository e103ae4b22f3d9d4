#ifndef SNAKES_COST_CALIBRATION_H_
#define SNAKES_COST_CALIBRATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "curves/linearization.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "util/clock.h"
#include "util/result.h"

namespace snakes {

/// One calibration observation: a query's I/O features (from IoSimulator
/// against a storage backend) paired with the nanoseconds a real file_store
/// execution of the same query took. What the sweep records and the fit
/// consumes — the Hyrise-style "generate calibration queries, extract
/// features, fit" loop, in-repo.
struct CalibrationSample {
  std::string query_class;  // QueryClass::ToString of the sampled class
  std::string strategy;     // linearization name
  std::string backend;      // StorageBackendKindName
  CostFeatures features;
  double measured_ns = 0.0;
};

/// Knobs of the calibration sweep.
struct CalibrationSweepConfig {
  StorageConfig storage;
  /// Backends the features are measured against. The file_store timing is
  /// identical across kinds (all backends share the page packing); what
  /// differs is the pruning features.
  std::vector<StorageBackendKind> backends = {StorageBackendKind::kPacked};
  /// Queries drawn uniformly per (strategy, backend, class) triple.
  int queries_per_class = 4;
  /// Timed executions per query; the minimum is recorded (the standard
  /// noise floor estimator for in-memory-cached reads).
  int repetitions = 3;
  uint64_t seed = 19990601;
  /// Scratch file each strategy's PackedLayout is serialized into; removed
  /// when the sweep returns. Empty = a per-process file in the system temp
  /// directory.
  std::string scratch_path;
};

/// Sweeps every (strategy, backend, lattice class) triple: serializes the
/// strategy's packed layout into a real file, measures each sampled query's
/// features through IoSimulator and its wall time through
/// FileStore::ExecuteTimed, and returns the (features -> measured ns)
/// samples. `clock` (null = steady clock) makes the timing injectable for
/// deterministic tests.
Result<std::vector<CalibrationSample>> CollectCalibrationSamples(
    std::shared_ptr<const FactTable> facts,
    const std::vector<std::shared_ptr<const Linearization>>& strategies,
    const CalibrationSweepConfig& config, Clock* clock = nullptr);

/// Feature selection for the least-squares fit. The default {seeks, pages}
/// plus the implicit intercept is deliberately small: on a single backend
/// sweep, runs is nearly collinear with seeks and records with pages, and a
/// near-singular design matrix fits noise.
struct CalibrationFitOptions {
  std::vector<std::string> features = {"seeks", "pages"};
};

/// A fitted linear time model with its goodness-of-fit report.
struct CalibrationFit {
  double intercept_ms = 0.0;
  /// Per-feature ms coefficients; exactly the fitted features are non-zero.
  CostFeatures coefficients_ms;
  /// Coefficient of determination on the fitted samples.
  double r_squared = 0.0;
  /// Median of |predicted - measured| / measured over samples with
  /// measured_ns > 0.
  double median_relative_error = 0.0;
  /// Median relative error per query class (class label -> median), sorted
  /// by label.
  std::vector<std::pair<std::string, double>> per_class_relative_error;
  uint64_t num_samples = 0;

  /// The fitted model, ready to thread through an EvaluationRequest.
  CalibratedLinearModel ToModel() const;

  /// Coefficients JSON (CalibratedLinearModel::FromJson-compatible; carries
  /// the fit report as extra keys).
  std::string ToJson() const;
};

/// Fits measured_ns (converted to ms) against the selected features by
/// ordinary least squares over the normal equations — no dependencies.
/// Returns InvalidArgument when the design matrix is singular (degenerate
/// sweeps: fewer samples than coefficients, or a feature that never varies),
/// or when any sample carries non-finite values; never NaN coefficients.
Result<CalibrationFit> FitCalibration(
    const std::vector<CalibrationSample>& samples,
    const CalibrationFitOptions& options = {});

/// Solves min ||X b - y||_2 via the normal equations (X^T X b = X^T y) with
/// Gaussian elimination + partial pivoting. `rows` are the rows of X (all
/// the same width, intercept column included by the caller). Exposed for
/// direct testing: singular systems are InvalidArgument, not NaN.
Result<std::vector<double>> SolveLeastSquares(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& y);

/// Samples JSON: {"page_size_bytes": .., "record_size_bytes": ..,
/// "samples": [{..}, ...]}.
std::string CalibrationSamplesToJson(
    const std::vector<CalibrationSample>& samples, const StorageConfig& config);

}  // namespace snakes

#endif  // SNAKES_COST_CALIBRATION_H_
