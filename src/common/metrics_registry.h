#ifndef RFVIEW_COMMON_METRICS_REGISTRY_H_
#define RFVIEW_COMMON_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rfv {

/// Process-wide operational metrics, exported in Prometheus text format.
///
/// Counters and histograms are registered lazily by name (+ optional
/// labels) and live for the process lifetime, so hot paths cache the
/// returned pointer in a function-local static and pay one relaxed
/// atomic add per event:
///
///   static Counter* probes = MetricsRegistry::Global().GetCounter(
///       "rfv_index_probes_total", {}, "Ordered-index point/range probes");
///   probes->Increment();
///
/// `MetricsRegistry::Global().ToPrometheusText()` (surfaced as
/// `Database::MetricsText()` and the shell's `\metrics` / `.metrics`
/// command) renders every family with # HELP / # TYPE headers.

/// Monotonic counter (relaxed atomics: totals need no ordering).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time level that moves both ways (admission queue depth,
/// in-flight queries). Same relaxed-atomic discipline as Counter.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Decrement(int64_t delta = 1) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Latency histogram with fixed exponential "le" buckets (seconds, from
/// 10us to ~10s doubling ×4) plus sum and count — the standard
/// Prometheus histogram exposition.
class Histogram {
 public:
  Histogram();

  /// Records one observation (thread-safe, relaxed atomics).
  void Observe(double seconds);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  /// Upper bounds of the buckets (shared by all histograms).
  static const std::vector<double>& BucketBounds();

  /// Cumulative count of observations <= BucketBounds()[i].
  int64_t BucketCount(size_t i) const;

 private:
  std::vector<std::unique_ptr<std::atomic<int64_t>>> buckets_;
  std::atomic<int64_t> count_{0};
  /// Sum in nanoseconds (atomic<double> addition predates C++20).
  std::atomic<int64_t> sum_ns_{0};
};

/// Label set of one metric instance, e.g. {{"method", "maxoa"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// One metric instance captured by MetricsRegistry::Snapshot() — the
/// structured (non-text) view of the registry that feeds the
/// `rfv_system.metrics` introspection view. Counters carry their total
/// in `count`; histograms carry observation count and sum-of-seconds.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  /// Rendered label set, `{k="v",...}`; empty for label-free instances.
  std::string labels;
  Kind kind = Kind::kCounter;
  /// Counter value, or histogram observation count.
  int64_t count = 0;
  /// Histogram sum in seconds; 0 for counters.
  double sum_seconds = 0;
  std::string help;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter for `name` + `labels`, creating it on first
  /// use. The pointer stays valid for the process lifetime. `help` is
  /// recorded on first registration of the family.
  Counter* GetCounter(const std::string& name,
                      const MetricLabels& labels = {},
                      const std::string& help = "");

  /// Gauge analogue of GetCounter.
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {},
                  const std::string& help = "");

  /// Histogram analogue of GetCounter.
  Histogram* GetHistogram(const std::string& name,
                          const MetricLabels& labels = {},
                          const std::string& help = "");

  /// Prometheus text exposition of every registered family, sorted
  /// globally by family name (counters and histograms interleaved) and
  /// by label string within a family, so consecutive scrapes diff
  /// stably in CI and tests.
  std::string ToPrometheusText() const;

  /// Structured snapshot of every instance, sorted by (name, labels) —
  /// the typed alternative to scraping ToPrometheusText().
  std::vector<MetricSnapshot> Snapshot() const;

 private:
  MetricsRegistry() = default;

  struct CounterFamily {
    std::string help;
    std::map<std::string, Counter*> instances;  ///< label string → counter
  };
  struct GaugeFamily {
    std::string help;
    std::map<std::string, Gauge*> instances;
  };
  struct HistogramFamily {
    std::string help;
    std::map<std::string, Histogram*> instances;
  };

  mutable std::mutex mu_;
  std::map<std::string, CounterFamily> counters_;
  std::map<std::string, GaugeFamily> gauges_;
  std::map<std::string, HistogramFamily> histograms_;
};

/// Renders labels as `{k1="v1",k2="v2"}` (empty string for no labels).
std::string FormatMetricLabels(const MetricLabels& labels);

}  // namespace rfv

#endif  // RFVIEW_COMMON_METRICS_REGISTRY_H_
