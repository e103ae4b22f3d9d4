#ifndef SNAKES_COST_COST_MODEL_H_
#define SNAKES_COST_COST_MODEL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/backend.h"
#include "storage/executor.h"
#include "util/result.h"

namespace snakes {

/// The per-query I/O features every cost model prices. Everything the
/// simulator and the calibration sweep can observe about a query, as doubles
/// so workload expectations (fractional averages) fit the same vector as
/// single measured queries.
struct CostFeatures {
  double seeks = 0.0;               // non-sequential accesses (fragments)
  double pages = 0.0;               // distinct pages read
  double runs = 0.0;                // rank runs the query decomposed into
  double records = 0.0;             // records selected
  double partitions_scanned = 0.0;  // zone-map survivors consulted
  double partitions_pruned = 0.0;   // partitions skipped via zone maps

  /// Features of one measured query.
  static CostFeatures FromQueryIo(const QueryIo& io);
  /// Features of a workload expectation (per-query averages).
  static CostFeatures FromWorkloadIo(const WorkloadIoStats& io);
};

/// One named CostFeatures member — the table the coefficients JSON, the
/// calibration fit's feature selection, and the linear model's dot product
/// all share, so a feature added here flows through every layer.
struct CostFeatureField {
  const char* name;
  double CostFeatures::* member;
};

/// Canonical named features, in fit/JSON order.
const std::vector<CostFeatureField>& CostFeatureFields();

/// The cost-model implementations the stack can price time with.
enum class CostModelKind {
  /// The seed's late-90s server drive (9.5 ms seeks, 15 MB/s transfer) —
  /// the bit-compatible default.
  kAnalytic,
  /// Modern rotating-disk preset.
  kHdd,
  /// NVMe flash preset (seeks nearly free; transfer dominates).
  kSsd,
  /// Linear model fitted to measured file_store executions
  /// (cost/calibration.h).
  kCalibrated,
};

/// Stable lowercase name ("analytic" / "hdd" / "ssd" / "calibrated").
const char* CostModelKindName(CostModelKind kind);

/// Inverse of CostModelKindName; InvalidArgument on unknown names.
Result<CostModelKind> ParseCostModelKind(std::string_view name);

/// Abstract time model: translates I/O features into estimated elapsed
/// milliseconds. One interface threads through every consumer — the advisor's
/// per-strategy reports, the recluster engine's net-benefit accounting, and
/// the service's per-tenant serving state — so swapping hand-set constants
/// for fitted coefficients is a construction-time choice, not a code path.
///
/// Models never participate in strategy *ranking*: expected_cost stays the
/// paper's model-independent seek surrogate (and the ClassCostCache keeps
/// memoizing model-independent per-class integers); models only convert the
/// measured/expected features into time at the edge.
class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual CostModelKind kind() const = 0;
  /// Human-readable label ("analytic", "hdd", "calibrated", ...).
  virtual const std::string& name() const = 0;

  /// Estimated elapsed milliseconds for the I/O in `features`. Transfer
  /// terms are priced against `page_size_bytes` (analytic models convert
  /// pages to bytes; fitted models absorbed the page size into their pages
  /// coefficient at calibration time and ignore it).
  virtual double EstimateMs(const CostFeatures& features,
                            uint64_t page_size_bytes) const = 0;

  /// Milliseconds one seek costs under this model — the conversion factor
  /// from the paper's seek-count surrogate (cost_mu, expected fragments per
  /// query) into time when no richer features were measured.
  virtual double SeekMs() const = 0;

  /// One-line JSON description of the model and its parameters.
  virtual std::string ToJson() const = 0;

  /// Convenience: one measured query / a workload expectation.
  double QueryMs(const QueryIo& io, uint64_t page_size_bytes) const {
    return EstimateMs(CostFeatures::FromQueryIo(io), page_size_bytes);
  }
  double ExpectedMs(const WorkloadIoStats& io, uint64_t page_size_bytes) const {
    return EstimateMs(CostFeatures::FromWorkloadIo(io), page_size_bytes);
  }
};

/// A rotating disk, the device class the paper's cost model targets: a
/// positioning time per seek (seek + half a rotation) plus sequential
/// transfer, nothing else. The kAnalytic instance reproduces the seed's
/// numbers bit-for-bit (same multiply/divide order); kHdd / kSsd are the
/// same formula with modern constants.
class AnalyticDiskModel : public CostModel {
 public:
  AnalyticDiskModel(CostModelKind kind, std::string name, double seek_ms,
                    double transfer_bytes_per_ms)
      : kind_(kind),
        name_(std::move(name)),
        seek_ms_(seek_ms),
        transfer_bytes_per_ms_(transfer_bytes_per_ms) {}

  CostModelKind kind() const override { return kind_; }
  const std::string& name() const override { return name_; }
  double EstimateMs(const CostFeatures& features,
                    uint64_t page_size_bytes) const override {
    return features.seeks * seek_ms_ +
           features.pages * static_cast<double>(page_size_bytes) /
               transfer_bytes_per_ms_;
  }
  double SeekMs() const override { return seek_ms_; }
  std::string ToJson() const override;

 private:
  CostModelKind kind_;
  std::string name_;
  double seek_ms_;
  double transfer_bytes_per_ms_;
};

/// Linear time model with fitted coefficients: estimated ms is
/// intercept + dot(coefficients, features). Produced by the calibration fit
/// (cost/calibration.h) or loaded from its coefficients JSON; the intercept
/// absorbs per-execution fixed costs (file open, setup) that no per-IO
/// feature explains.
class CalibratedLinearModel : public CostModel {
 public:
  CalibratedLinearModel(double intercept_ms, CostFeatures coefficients_ms,
                        std::string name = "calibrated")
      : name_(std::move(name)),
        intercept_ms_(intercept_ms),
        coef_(coefficients_ms) {}

  CostModelKind kind() const override { return CostModelKind::kCalibrated; }
  const std::string& name() const override { return name_; }
  double EstimateMs(const CostFeatures& features,
                    uint64_t page_size_bytes) const override;
  double SeekMs() const override { return coef_.seeks; }
  std::string ToJson() const override;

  double intercept_ms() const { return intercept_ms_; }
  const CostFeatures& coefficients_ms() const { return coef_; }

  /// Parses the coefficients JSON written by the calibration tool
  /// ({"intercept_ms": .., "coefficients": {"seeks": .., ...}}). Strict:
  /// malformed JSON, missing fields, or non-finite numbers are
  /// InvalidArgument, never NaN models.
  static Result<CalibratedLinearModel> FromJson(std::string_view json);

 private:
  std::string name_;
  double intercept_ms_ = 0.0;
  CostFeatures coef_;
};

/// How a consumer names the cost model it wants: a preset kind, plus the
/// coefficients JSON when the kind is kCalibrated. The service embeds one in
/// TenantSpec and the `costmodel` Dispatch verb round-trips it live.
struct CostModelSpec {
  CostModelKind kind = CostModelKind::kAnalytic;
  /// Required (non-empty) iff kind == kCalibrated: the coefficients JSON
  /// written by tools/calibrate_cost, or a path to it (payloads not starting
  /// with '{' are read as a file).
  std::string calibrated_json;
};

/// Builds the preset model of `kind`; InvalidArgument for kCalibrated (its
/// coefficients must come from a spec or FromJson).
Result<std::shared_ptr<const CostModel>> MakeCostModel(CostModelKind kind);

/// Builds the model a spec names, loading calibrated coefficients from the
/// embedded JSON (or the file it points at).
Result<std::shared_ptr<const CostModel>> MakeCostModel(
    const CostModelSpec& spec);

/// The process-wide kAnalytic instance — the default every consumer falls
/// back to when no model was selected, keeping seed behavior bit-identical.
const std::shared_ptr<const CostModel>& DefaultCostModel();

}  // namespace snakes

#endif  // SNAKES_COST_COST_MODEL_H_
