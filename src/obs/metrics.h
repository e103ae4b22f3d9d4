#ifndef SNAKES_OBS_METRICS_H_
#define SNAKES_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace snakes {

/// Monotonically increasing event count. Updates are relaxed atomics — no
/// lock, no fence beyond the RMW itself — so counters are safe to bump from
/// thread-pool tasks and cost one uncontended atomic add.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written-wins instantaneous value (table sizes, hit rates). Doubles
/// cover both byte counts (exact to 2^53) and ratios.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale (power-of-two bucket) histogram of non-negative integer samples
/// — durations in nanoseconds, run lengths in pages. Bucket b collects the
/// values whose bit width is b (bucket 0 holds the value 0), so 64 buckets
/// cover the whole uint64 range with <= 2x relative quantile error, refined
/// by linear interpolation inside the bucket. Record is a handful of relaxed
/// atomic adds; quantiles are computed at snapshot time only.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;  // bit widths 0..64

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded sample; 0 when empty.
  uint64_t min() const;
  uint64_t max() const;
  /// Interpolated quantile (q in [0, 1]) from the bucket counts; 0 when
  /// empty. Exact for single-valued buckets, otherwise within the bucket.
  double Quantile(double q) const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// Interpolated quantile (q in [0, 1]) over raw power-of-two bucket counts
/// laid out as Histogram stores them (bucket b = samples of bit width b).
/// Returns 0 when all buckets are empty. Shared by Histogram::Quantile and
/// the SLO windows, which merge bucket arrays from several time slices
/// before asking for a quantile.
double LogBucketQuantile(const uint64_t (&buckets)[Histogram::kNumBuckets],
                         double q);

/// One histogram, condensed for reporting.
struct HistogramStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every registered metric, detached from the
/// registry (safe to keep after the registry dies). Names are sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  /// Counter value by exact name; 0 when absent.
  uint64_t counter(std::string_view name) const;
  /// Gauge value by exact name; 0 when absent.
  double gauge(std::string_view name) const;
  /// Histogram stats by exact name; empty stats when absent.
  HistogramStats histogram(std::string_view name) const;

  /// Aligned text tables (one per metric kind), for terminal reports.
  std::string ToTable() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, p50, p95, p99}}}. `pretty` adds newlines and indentation;
  /// compact output is a single line for embedding in other JSON documents.
  std::string ToJson(bool pretty = true) const;
};

/// Name -> metric registry. Registration (Get*) takes a mutex and interns
/// the name; the returned pointer is stable for the registry's lifetime, so
/// instrumented code resolves its metrics once and then updates lock-free.
/// A name registers one kind only: requesting an existing name as a
/// different kind is a programming error (checked).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
/// control characters). Shared by the metrics and trace serializers.
std::string JsonEscape(std::string_view s);

/// Shortest text that parses back to exactly `v` (at most 17 significant
/// digits); JSON has no Inf/NaN, so non-finite values become null.
std::string JsonNumber(double v);

}  // namespace snakes

#endif  // SNAKES_OBS_METRICS_H_
