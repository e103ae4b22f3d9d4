#include "cost/cost_model.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace snakes {

namespace {

// ---- Minimal strict JSON scanner (objects of numbers / nested objects) ----
//
// Just enough to read the coefficients file the calibration tool writes:
// one object whose values are numbers, strings, or one level of nested
// object. No dependencies, no recursion past what the format needs, and
// every malformed input becomes an error Status instead of UB.

class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  Status ParseObject(
      const std::function<Status(std::string_view key)>& on_key) {
    SNAKES_RETURN_IF_ERROR(Expect('{'));
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      std::string key;
      SNAKES_RETURN_IF_ERROR(ParseString(&key));
      SNAKES_RETURN_IF_ERROR(Expect(':'));
      SNAKES_RETURN_IF_ERROR(on_key(key));
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        SkipSpace();
        continue;
      }
      return Expect('}');
    }
  }

  Status ParseNumber(double* out) {
    SkipSpace();
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("cost model JSON: expected a number at " +
                                     std::to_string(start));
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Status::InvalidArgument("cost model JSON: bad number '" + token +
                                     "'");
    }
    *out = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    SNAKES_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        return Status::InvalidArgument(
            "cost model JSON: escapes are not supported");
      }
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("cost model JSON: unterminated string");
    }
    ++pos_;  // closing quote
    return Status::OK();
  }

  /// Skips one value of any supported shape (string / number / object).
  Status SkipValue() {
    SkipSpace();
    if (Peek() == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (Peek() == '{') {
      return ParseObject([this](std::string_view) { return SkipValue(); });
    }
    double ignored = 0.0;
    return ParseNumber(&ignored);
  }

  Status AtEnd() {
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          "cost model JSON: trailing characters after the object");
    }
    return Status::OK();
  }

 private:
  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  Status Expect(char c) {
    if (Peek() != c) {
      return Status::InvalidArgument(std::string("cost model JSON: expected '") +
                                     c + "' at position " +
                                     std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const std::vector<CostFeatureField>& CostFeatureFields() {
  static const std::vector<CostFeatureField> fields = {
      {"seeks", &CostFeatures::seeks},
      {"pages", &CostFeatures::pages},
      {"runs", &CostFeatures::runs},
      {"records", &CostFeatures::records},
      {"partitions_scanned", &CostFeatures::partitions_scanned},
      {"partitions_pruned", &CostFeatures::partitions_pruned},
  };
  return fields;
}

CostFeatures CostFeatures::FromQueryIo(const QueryIo& io) {
  CostFeatures f;
  f.seeks = static_cast<double>(io.seeks);
  f.pages = static_cast<double>(io.pages);
  f.records = static_cast<double>(io.records);
  return f;
}

CostFeatures CostFeatures::FromWorkloadIo(const WorkloadIoStats& io) {
  CostFeatures f;
  f.seeks = io.expected_seeks;
  f.pages = io.expected_pages;
  return f;
}

const char* CostModelKindName(CostModelKind kind) {
  switch (kind) {
    case CostModelKind::kAnalytic:
      return "analytic";
    case CostModelKind::kHdd:
      return "hdd";
    case CostModelKind::kSsd:
      return "ssd";
    case CostModelKind::kCalibrated:
      return "calibrated";
  }
  return "unknown";
}

Result<CostModelKind> ParseCostModelKind(std::string_view name) {
  if (name == "analytic") return CostModelKind::kAnalytic;
  if (name == "hdd") return CostModelKind::kHdd;
  if (name == "ssd") return CostModelKind::kSsd;
  if (name == "calibrated") return CostModelKind::kCalibrated;
  return Status::InvalidArgument(
      "unknown cost model '" + std::string(name) +
      "' (known: analytic, hdd, ssd, calibrated)");
}

std::string AnalyticDiskModel::ToJson() const {
  std::string out = "{\"model\": \"";
  out += CostModelKindName(kind_);
  out += "\", \"seek_ms\": " + JsonNumber(seek_ms_) +
         ", \"transfer_bytes_per_ms\": " + JsonNumber(transfer_bytes_per_ms_) +
         "}";
  return out;
}

double CalibratedLinearModel::EstimateMs(const CostFeatures& features,
                                         uint64_t page_size_bytes) const {
  (void)page_size_bytes;  // absorbed into the pages coefficient at fit time
  double ms = intercept_ms_;
  for (const CostFeatureField& nf : CostFeatureFields()) {
    ms += coef_.*(nf.member) * (features.*(nf.member));
  }
  return ms;
}

std::string CalibratedLinearModel::ToJson() const {
  std::string out = "{\"model\": \"calibrated\", \"intercept_ms\": " +
                    JsonNumber(intercept_ms_) + ", \"coefficients\": {";
  bool first = true;
  for (const CostFeatureField& nf : CostFeatureFields()) {
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + nf.name +
           "\": " + JsonNumber(coef_.*(nf.member));
  }
  out += "}}";
  return out;
}

Result<CalibratedLinearModel> CalibratedLinearModel::FromJson(
    std::string_view json) {
  double intercept = 0.0;
  bool saw_intercept = false;
  bool saw_coefficients = false;
  CostFeatures coef;
  JsonScanner scanner(json);
  const Status parsed =
      scanner.ParseObject([&](std::string_view key) -> Status {
        if (key == "intercept_ms") {
          saw_intercept = true;
          return scanner.ParseNumber(&intercept);
        }
        if (key == "coefficients") {
          saw_coefficients = true;
          return scanner.ParseObject([&](std::string_view feature) -> Status {
            for (const CostFeatureField& nf : CostFeatureFields()) {
              if (feature == nf.name) {
                return scanner.ParseNumber(&(coef.*(nf.member)));
              }
            }
            return Status::InvalidArgument("cost model JSON: unknown feature '" +
                                           std::string(feature) + "'");
          });
        }
        // Fit metadata (r_squared, samples, model, ...) rides along.
        return scanner.SkipValue();
      });
  SNAKES_RETURN_IF_ERROR(parsed);
  SNAKES_RETURN_IF_ERROR(scanner.AtEnd());
  if (!saw_intercept || !saw_coefficients) {
    return Status::InvalidArgument(
        "cost model JSON: needs intercept_ms and coefficients");
  }
  return CalibratedLinearModel(intercept, coef);
}

Result<std::shared_ptr<const CostModel>> MakeCostModel(CostModelKind kind) {
  switch (kind) {
    case CostModelKind::kAnalytic:
      // A late-90s server drive, so the examples' numbers line up with
      // the paper's era.
      return std::shared_ptr<const CostModel>(
          std::make_shared<AnalyticDiskModel>(
              CostModelKind::kAnalytic, "analytic", 9.5, 15'000.0));
    case CostModelKind::kHdd:
      // A current 7200rpm drive: ~8 ms average positioning, ~160 MB/s
      // sustained sequential transfer.
      return std::shared_ptr<const CostModel>(
          std::make_shared<AnalyticDiskModel>(
              CostModelKind::kHdd, "hdd", 8.0, 160'000.0));
    case CostModelKind::kSsd:
      // NVMe flash: positioning nearly free, ~2 GB/s transfer.
      return std::shared_ptr<const CostModel>(
          std::make_shared<AnalyticDiskModel>(
              CostModelKind::kSsd, "ssd", 0.05, 2'000'000.0));
    case CostModelKind::kCalibrated:
      return Status::InvalidArgument(
          "calibrated cost model needs fitted coefficients (use "
          "CostModelSpec with calibrated_json or "
          "CalibratedLinearModel::FromJson)");
  }
  return Status::InvalidArgument("unknown cost model kind");
}

Result<std::shared_ptr<const CostModel>> MakeCostModel(
    const CostModelSpec& spec) {
  if (spec.kind != CostModelKind::kCalibrated) return MakeCostModel(spec.kind);
  if (spec.calibrated_json.empty()) {
    return Status::InvalidArgument(
        "calibrated cost model needs coefficients JSON (or a path to it)");
  }
  std::string json = spec.calibrated_json;
  if (json.front() != '{') {
    std::ifstream in(json);
    if (!in) {
      return Status::NotFound("cannot read cost model coefficients from '" +
                              json + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json = buffer.str();
  }
  SNAKES_ASSIGN_OR_RETURN(CalibratedLinearModel model,
                          CalibratedLinearModel::FromJson(json));
  return std::shared_ptr<const CostModel>(
      std::make_shared<CalibratedLinearModel>(std::move(model)));
}

const std::shared_ptr<const CostModel>& DefaultCostModel() {
  static const std::shared_ptr<const CostModel> model =
      MakeCostModel(CostModelKind::kAnalytic).value();
  return model;
}

}  // namespace snakes
