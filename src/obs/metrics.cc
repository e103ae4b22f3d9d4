#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/logging.h"
#include "util/text_table.h"

namespace snakes {

namespace {

/// Lowest / highest value mapping to bucket `b` (bit width b).
uint64_t BucketLo(int b) { return b == 0 ? 0 : uint64_t{1} << (b - 1); }
uint64_t BucketHi(int b) {
  if (b == 0) return 0;
  if (b == 64) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

template <typename Map, typename Key>
auto* FindOrNull(const Map& map, const Key& key) {
  const auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::min() const {
  const uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX && count() == 0 ? 0 : v;
}

uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double LogBucketQuantile(const uint64_t (&buckets)[Histogram::kNumBuckets],
                         double q) {
  uint64_t n = 0;
  for (const uint64_t b : buckets) n += b;
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  double last_hi = 0.0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket == 0.0) continue;
    const double lo = static_cast<double>(BucketLo(b));
    const double hi = static_cast<double>(BucketHi(b));
    last_hi = hi;
    if (cumulative + in_bucket >= target) {
      const double frac = (target - cumulative) / in_bucket;
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return last_hi;
}

double Histogram::Quantile(double q) const {
  if (count() == 0) return 0.0;
  uint64_t buckets[kNumBuckets];
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  // The true extremes are tracked exactly; never report beyond them.
  return std::clamp(LogBucketQuantile(buckets, q),
                    static_cast<double>(min()), static_cast<double>(max()));
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  SNAKES_CHECK(gauges_.find(name) == gauges_.end() &&
               histograms_.find(name) == histograms_.end())
      << "metric '" << std::string(name) << "' already registered as another kind";
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  SNAKES_CHECK(counters_.find(name) == counters_.end() &&
               histograms_.find(name) == histograms_.end())
      << "metric '" << std::string(name) << "' already registered as another kind";
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  SNAKES_CHECK(counters_.find(name) == counters_.end() &&
               gauges_.find(name) == gauges_.end())
      << "metric '" << std::string(name) << "' already registered as another kind";
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramStats stats;
    stats.count = hist->count();
    stats.sum = hist->sum();
    stats.min = hist->min();
    stats.max = hist->max();
    stats.p50 = hist->Quantile(0.50);
    stats.p95 = hist->Quantile(0.95);
    stats.p99 = hist->Quantile(0.99);
    snap.histograms.emplace_back(name, stats);
  }
  return snap;
}

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

HistogramStats MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return v;
  }
  return {};
}

std::string MetricsSnapshot::ToTable() const {
  std::string out;
  if (!counters.empty()) {
    TextTable table({"counter", "value"});
    for (const auto& [name, value] : counters) {
      table.AddRow({name, std::to_string(value)});
    }
    out += table.Render();
  }
  if (!gauges.empty()) {
    TextTable table({"gauge", "value"});
    for (const auto& [name, value] : gauges) {
      table.AddRow({name, FormatDouble(value, 4)});
    }
    out += table.Render();
  }
  if (!histograms.empty()) {
    TextTable table({"histogram", "count", "sum", "min", "p50", "p95", "p99",
                     "max"});
    for (const auto& [name, h] : histograms) {
      table.AddRow({name, std::to_string(h.count), std::to_string(h.sum),
                    std::to_string(h.min), FormatDouble(h.p50, 1),
                    FormatDouble(h.p95, 1), FormatDouble(h.p99, 1),
                    std::to_string(h.max)});
    }
    out += table.Render();
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lf", &parsed);
  if (parsed == v) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
      std::sscanf(shorter, "%lf", &parsed);
      if (parsed == v) return shorter;
    }
  }
  return buf;
}

std::string MetricsSnapshot::ToJson(bool pretty) const {
  const char* nl = pretty ? "\n" : "";
  const char* ind1 = pretty ? "  " : "";
  const char* ind2 = pretty ? "    " : "";
  std::string out = "{";
  out += nl;

  const auto section = [&](const char* name, auto&& body, bool last) {
    out += ind1;
    out += "\"";
    out += name;
    out += "\": {";
    out += nl;
    body();
    out += ind1;
    out += "}";
    if (!last) out += ",";
    out += nl;
  };

  section("counters", [&] {
    for (size_t i = 0; i < counters.size(); ++i) {
      out += ind2;
      out += "\"" + JsonEscape(counters[i].first) +
             "\": " + std::to_string(counters[i].second);
      if (i + 1 < counters.size()) out += ",";
      out += nl;
    }
  }, false);
  section("gauges", [&] {
    for (size_t i = 0; i < gauges.size(); ++i) {
      out += ind2;
      out += "\"" + JsonEscape(gauges[i].first) +
             "\": " + JsonNumber(gauges[i].second);
      if (i + 1 < gauges.size()) out += ",";
      out += nl;
    }
  }, false);
  section("histograms", [&] {
    for (size_t i = 0; i < histograms.size(); ++i) {
      const HistogramStats& h = histograms[i].second;
      out += ind2;
      out += "\"" + JsonEscape(histograms[i].first) + "\": {";
      out += "\"count\": " + std::to_string(h.count);
      out += ", \"sum\": " + std::to_string(h.sum);
      out += ", \"min\": " + std::to_string(h.min);
      out += ", \"max\": " + std::to_string(h.max);
      out += ", \"p50\": " + JsonNumber(h.p50);
      out += ", \"p95\": " + JsonNumber(h.p95);
      out += ", \"p99\": " + JsonNumber(h.p99);
      out += "}";
      if (i + 1 < histograms.size()) out += ",";
      out += nl;
    }
  }, true);

  out += "}";
  if (pretty) out += "\n";
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

}  // namespace snakes
