#include "cost/calibration.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "lattice/lattice.h"
#include "storage/executor.h"
#include "storage/file_store.h"
#include "storage/pager.h"
#include "util/rng.h"

namespace snakes {

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Owns the sweep's scratch file: resolves the default path (unique per
/// process and sweep, so concurrent sweeps never share a file) and removes
/// the file on every exit path of the sweep.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& path) : path_(path) {
    if (!path_.empty()) return;
    static std::atomic<uint64_t> next{0};
    std::error_code ec;  // no temp directory: the working directory
    path_ = std::filesystem::temp_directory_path(ec) /
            ("snakes_calibration_scratch." + std::to_string(getpid()) + "." +
             std::to_string(next.fetch_add(1)) + ".bin");
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Median of a (destructively sorted) non-empty vector.
double Median(std::vector<double>* values) {
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  return n % 2 == 1 ? (*values)[n / 2]
                    : 0.5 * ((*values)[n / 2 - 1] + (*values)[n / 2]);
}

/// Resolves a fit-option feature name against the canonical table.
Result<const CostFeatureField*> FindFeature(const std::string& name) {
  for (const CostFeatureField& field : CostFeatureFields()) {
    if (name == field.name) return &field;
  }
  return Status::InvalidArgument("calibration: unknown fit feature '" + name +
                                 "'");
}

}  // namespace

Result<std::vector<double>> SolveLeastSquares(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& y) {
  if (rows.size() != y.size()) {
    return Status::InvalidArgument(
        "least squares: design matrix and targets disagree on sample count");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("least squares: no samples");
  }
  const size_t k = rows.front().size();
  if (k == 0) return Status::InvalidArgument("least squares: no features");
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != k) {
      return Status::InvalidArgument(
          "least squares: ragged design matrix row " + std::to_string(i));
    }
    if (!std::isfinite(y[i])) {
      return Status::InvalidArgument("least squares: non-finite target at row " +
                                     std::to_string(i));
    }
    for (const double v : rows[i]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "least squares: non-finite feature at row " + std::to_string(i));
      }
    }
  }

  // Normal equations: A = X^T X (k x k, symmetric), b = X^T y.
  std::vector<std::vector<double>> a(k, std::vector<double>(k, 0.0));
  std::vector<double> b(k, 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t p = 0; p < k; ++p) {
      b[p] += rows[i][p] * y[i];
      for (size_t q = p; q < k; ++q) a[p][q] += rows[i][p] * rows[i][q];
    }
  }
  for (size_t p = 0; p < k; ++p) {
    for (size_t q = 0; q < p; ++q) a[p][q] = a[q][p];
  }

  // Relative pivot floor: scale-aware, so a matrix of tiny-but-consistent
  // magnitudes is not misread as singular.
  double scale = 0.0;
  for (size_t p = 0; p < k; ++p) scale = std::max(scale, std::fabs(a[p][p]));
  const double pivot_floor = std::max(scale, 1.0) * 1e-12;

  // Gaussian elimination with partial pivoting on [A | b].
  for (size_t col = 0; col < k; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < k; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) pivot = row;
    }
    if (std::fabs(a[pivot][col]) < pivot_floor) {
      return Status::InvalidArgument(
          "least squares: singular design matrix (feature " +
          std::to_string(col) +
          " is linearly dependent or never varies; drop it or add samples)");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t row = col + 1; row < k; ++row) {
      const double factor = a[row][col] / a[col][col];
      for (size_t q = col; q < k; ++q) a[row][q] -= factor * a[col][q];
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> solution(k, 0.0);
  for (size_t col = k; col-- > 0;) {
    double acc = b[col];
    for (size_t q = col + 1; q < k; ++q) acc -= a[col][q] * solution[q];
    solution[col] = acc / a[col][col];
    if (!std::isfinite(solution[col])) {
      return Status::InvalidArgument(
          "least squares: non-finite solution (ill-conditioned system)");
    }
  }
  return solution;
}

Result<std::vector<CalibrationSample>> CollectCalibrationSamples(
    std::shared_ptr<const FactTable> facts,
    const std::vector<std::shared_ptr<const Linearization>>& strategies,
    const CalibrationSweepConfig& config, Clock* clock) {
  if (facts == nullptr) {
    return Status::InvalidArgument("calibration: fact table must be non-null");
  }
  if (strategies.empty()) {
    return Status::InvalidArgument("calibration: no strategies to sweep");
  }
  if (config.backends.empty()) {
    return Status::InvalidArgument("calibration: no backends to sweep");
  }
  if (config.queries_per_class <= 0 || config.repetitions <= 0) {
    return Status::InvalidArgument(
        "calibration: queries_per_class and repetitions must be >= 1");
  }
  const StarSchema& schema = facts->schema();
  const QueryClassLattice lattice(schema);
  Rng rng(config.seed);
  const ScratchFile scratch(config.scratch_path);

  std::vector<CalibrationSample> samples;
  for (const std::shared_ptr<const Linearization>& lin : strategies) {
    if (lin == nullptr) {
      return Status::InvalidArgument("calibration: null strategy");
    }
    // One real file per strategy; every backend kind shares its page order.
    SNAKES_ASSIGN_OR_RETURN(
        PackedLayout packed,
        PackedLayout::Pack(lin, facts, config.storage));
    auto layout = std::make_shared<const PackedLayout>(std::move(packed));
    SNAKES_ASSIGN_OR_RETURN(FileStore store,
                            FileStore::Create(scratch.path(), layout));
    for (const StorageBackendKind kind : config.backends) {
      SNAKES_ASSIGN_OR_RETURN(
          std::shared_ptr<const StorageBackend> backend,
          MakeStorageBackend(kind, lin, facts, config.storage));
      const IoSimulator simulator(*backend);
      for (uint64_t idx = 0; idx < lattice.size(); ++idx) {
        const QueryClass cls = lattice.ClassAt(idx);
        for (int q = 0; q < config.queries_per_class; ++q) {
          const GridQuery query = SampleQuery(schema, cls, &rng);
          CalibrationSample sample;
          sample.query_class = cls.ToString();
          sample.strategy = lin->name();
          sample.backend = StorageBackendKindName(kind);
          PruneStats prune;
          const QueryIo io = simulator.Measure(query, &prune);
          sample.features = CostFeatures::FromQueryIo(io);
          sample.features.partitions_scanned =
              static_cast<double>(prune.scanned);
          sample.features.partitions_pruned =
              static_cast<double>(prune.pruned);
          {
            std::vector<RankRun> runs;
            lin->AppendRuns(BoxOf(schema, query), &runs);
            sample.features.runs = static_cast<double>(runs.size());
          }
          uint64_t best_ns = UINT64_MAX;
          for (int rep = 0; rep < config.repetitions; ++rep) {
            SNAKES_ASSIGN_OR_RETURN(FileStore::TimedAnswer timed,
                                    store.ExecuteTimed(query, clock));
            if (timed.answer.io.pages != io.pages ||
                timed.answer.io.seeks != io.seeks) {
              return Status::Internal(
                  "calibration: file_store I/O diverged from the simulator "
                  "for " + query.ToString());
            }
            best_ns = std::min(best_ns, timed.elapsed_ns);
          }
          sample.measured_ns = static_cast<double>(best_ns);
          samples.push_back(std::move(sample));
        }
      }
    }
  }
  return samples;
}

Result<CalibrationFit> FitCalibration(
    const std::vector<CalibrationSample>& samples,
    const CalibrationFitOptions& options) {
  if (samples.empty()) {
    return Status::InvalidArgument("calibration: no samples to fit");
  }
  std::vector<const CostFeatureField*> fields;
  fields.reserve(options.features.size());
  for (const std::string& name : options.features) {
    SNAKES_ASSIGN_OR_RETURN(const CostFeatureField* field, FindFeature(name));
    fields.push_back(field);
  }

  // Design matrix: intercept column + the selected features; targets in ms.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  rows.reserve(samples.size());
  y.reserve(samples.size());
  for (const CalibrationSample& sample : samples) {
    std::vector<double> row;
    row.reserve(fields.size() + 1);
    row.push_back(1.0);
    for (const CostFeatureField* field : fields) {
      row.push_back(sample.features.*(field->member));
    }
    rows.push_back(std::move(row));
    y.push_back(sample.measured_ns * 1e-6);
  }
  SNAKES_ASSIGN_OR_RETURN(std::vector<double> solution,
                          SolveLeastSquares(rows, y));

  CalibrationFit fit;
  fit.intercept_ms = solution[0];
  for (size_t i = 0; i < fields.size(); ++i) {
    fit.coefficients_ms.*(fields[i]->member) = solution[i + 1];
  }
  fit.num_samples = samples.size();

  // Goodness of fit: R^2 over all samples, relative error over the ones
  // with non-zero measured time (relative error of a zero is undefined).
  double mean = 0.0;
  for (const double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  std::vector<double> rel_errors;
  std::map<std::string, std::vector<double>> per_class;
  const CalibratedLinearModel model = fit.ToModel();
  for (size_t i = 0; i < samples.size(); ++i) {
    const double predicted = model.EstimateMs(samples[i].features, 0);
    const double residual = predicted - y[i];
    ss_res += residual * residual;
    ss_tot += (y[i] - mean) * (y[i] - mean);
    if (y[i] > 0.0) {
      const double rel = std::fabs(residual) / y[i];
      rel_errors.push_back(rel);
      per_class[samples[i].query_class].push_back(rel);
    }
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  if (!rel_errors.empty()) fit.median_relative_error = Median(&rel_errors);
  for (auto& [cls, errors] : per_class) {
    fit.per_class_relative_error.emplace_back(cls, Median(&errors));
  }
  return fit;
}

CalibratedLinearModel CalibrationFit::ToModel() const {
  return CalibratedLinearModel(intercept_ms, coefficients_ms);
}

std::string CalibrationFit::ToJson() const {
  // The model's own JSON plus the fit report, one object — FromJson skips
  // the extra keys.
  std::string model_json = ToModel().ToJson();
  model_json.pop_back();  // strip the closing '}'
  std::string out = std::move(model_json);
  out += ", \"r_squared\": " + JsonNumber(r_squared);
  out += ", \"median_relative_error\": " + JsonNumber(median_relative_error);
  out += ", \"samples\": " + std::to_string(num_samples);
  out += ", \"per_class_relative_error\": {";
  bool first = true;
  for (const auto& [cls, error] : per_class_relative_error) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + cls + "\": " + JsonNumber(error);
  }
  out += "}}";
  return out;
}

std::string CalibrationSamplesToJson(
    const std::vector<CalibrationSample>& samples,
    const StorageConfig& config) {
  std::string out = "{\n  \"page_size_bytes\": " +
                    std::to_string(config.page_size_bytes) +
                    ",\n  \"record_size_bytes\": " +
                    std::to_string(config.record_size_bytes) +
                    ",\n  \"samples\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const CalibrationSample& s = samples[i];
    out += "    {\"class\": \"" + s.query_class + "\", \"strategy\": \"" +
           s.strategy + "\", \"backend\": \"" + s.backend + "\"";
    for (const CostFeatureField& field : CostFeatureFields()) {
      out += std::string(", \"") + field.name +
             "\": " + JsonNumber(s.features.*(field.member));
    }
    out += ", \"measured_ns\": " + JsonNumber(s.measured_ns) + "}";
    if (i + 1 < samples.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace snakes
