#include "common/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace rfv {

namespace {

/// Prometheus label values only need " \ and newline escaped.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders a double the way Prometheus expects (no trailing zeros mess;
/// %g keeps integers integral).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string FormatMetricLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

// --- Histogram --------------------------------------------------------------

const std::vector<double>& Histogram::BucketBounds() {
  // 10us .. ~42s, ×4 per bucket: coarse but covers parse-to-bench times.
  static const std::vector<double>* bounds = new std::vector<double>{
      1e-5, 4e-5, 1.6e-4, 6.4e-4, 2.56e-3, 1.024e-2, 4.096e-2, 1.6384e-1,
      6.5536e-1, 2.62144, 10.48576, 41.94304};
  return *bounds;
}

Histogram::Histogram() {
  buckets_.reserve(BucketBounds().size());
  for (size_t i = 0; i < BucketBounds().size(); ++i) {
    buckets_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  }
}

void Histogram::Observe(double seconds) {
  const std::vector<double>& bounds = BucketBounds();
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (seconds <= bounds[i]) {
      buckets_[i]->fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
}

double Histogram::sum() const {
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e9;
}

int64_t Histogram::BucketCount(size_t i) const {
  // Buckets store per-range counts; exposition wants cumulative.
  int64_t cumulative = 0;
  for (size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    cumulative += buckets_[b]->load(std::memory_order_relaxed);
  }
  return cumulative;
}

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels,
                                     const std::string& help) {
  const std::string label_str = FormatMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  CounterFamily& family = counters_[name];
  if (family.help.empty()) family.help = help;
  Counter*& slot = family.instances[label_str];
  if (slot == nullptr) slot = new Counter();  // leaked: process lifetime
  return slot;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels,
                                 const std::string& help) {
  const std::string label_str = FormatMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  GaugeFamily& family = gauges_[name];
  if (family.help.empty()) family.help = help;
  Gauge*& slot = family.instances[label_str];
  if (slot == nullptr) slot = new Gauge();  // leaked: process lifetime
  return slot;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels,
                                         const std::string& help) {
  const std::string label_str = FormatMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  HistogramFamily& family = histograms_[name];
  if (family.help.empty()) family.help = help;
  Histogram*& slot = family.instances[label_str];
  if (slot == nullptr) slot = new Histogram();
  return slot;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Merge the two per-kind maps into one family stream sorted globally
  // by name (both maps are already name-sorted; instances label-sorted),
  // so the exposition is byte-stable across scrapes and diffs cleanly.
  std::string out;
  auto counter_it = counters_.begin();
  auto gauge_it = gauges_.begin();
  auto histogram_it = histograms_.begin();
  const auto emit_counter = [&out](const std::string& name,
                                   const CounterFamily& family) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " counter\n";
    for (const auto& [labels, counter] : family.instances) {
      out += name + labels + " " + std::to_string(counter->value()) + "\n";
    }
  };
  const auto emit_gauge = [&out](const std::string& name,
                                 const GaugeFamily& family) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " gauge\n";
    for (const auto& [labels, gauge] : family.instances) {
      out += name + labels + " " + std::to_string(gauge->value()) + "\n";
    }
  };
  const auto emit_histogram = [&out](const std::string& name,
                                     const HistogramFamily& family) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " histogram\n";
    for (const auto& [labels, histogram] : family.instances) {
      const std::vector<double>& bounds = Histogram::BucketBounds();
      // _bucket series need "le" merged into the existing label set.
      const std::string prefix =
          labels.empty() ? name + "_bucket{"
                         : name + "_bucket" +
                               labels.substr(0, labels.size() - 1) + ",";
      for (size_t i = 0; i < bounds.size(); ++i) {
        out += prefix + "le=\"" + FormatDouble(bounds[i]) + "\"} " +
               std::to_string(histogram->BucketCount(i)) + "\n";
      }
      out += prefix + "le=\"+Inf\"} " + std::to_string(histogram->count()) +
             "\n";
      out += name + "_sum" + labels + " " + FormatDouble(histogram->sum()) +
             "\n";
      out += name + "_count" + labels + " " +
             std::to_string(histogram->count()) + "\n";
    }
  };
  while (counter_it != counters_.end() || gauge_it != gauges_.end() ||
         histogram_it != histograms_.end()) {
    // Three-way merge on family name (each map is already name-sorted).
    const std::string* best = nullptr;
    if (counter_it != counters_.end()) best = &counter_it->first;
    if (gauge_it != gauges_.end() &&
        (best == nullptr || gauge_it->first < *best)) {
      best = &gauge_it->first;
    }
    if (histogram_it != histograms_.end() &&
        (best == nullptr || histogram_it->first < *best)) {
      best = &histogram_it->first;
    }
    if (counter_it != counters_.end() && &counter_it->first == best) {
      emit_counter(counter_it->first, counter_it->second);
      ++counter_it;
    } else if (gauge_it != gauges_.end() && &gauge_it->first == best) {
      emit_gauge(gauge_it->first, gauge_it->second);
      ++gauge_it;
    } else {
      emit_histogram(histogram_it->first, histogram_it->second);
      ++histogram_it;
    }
  }
  return out;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  for (const auto& [name, family] : counters_) {
    for (const auto& [labels, counter] : family.instances) {
      MetricSnapshot s;
      s.name = name;
      s.labels = labels;
      s.kind = MetricSnapshot::Kind::kCounter;
      s.count = counter->value();
      s.help = family.help;
      out.push_back(std::move(s));
    }
  }
  for (const auto& [name, family] : gauges_) {
    for (const auto& [labels, gauge] : family.instances) {
      MetricSnapshot s;
      s.name = name;
      s.labels = labels;
      s.kind = MetricSnapshot::Kind::kGauge;
      s.count = gauge->value();
      s.help = family.help;
      out.push_back(std::move(s));
    }
  }
  for (const auto& [name, family] : histograms_) {
    for (const auto& [labels, histogram] : family.instances) {
      MetricSnapshot s;
      s.name = name;
      s.labels = labels;
      s.kind = MetricSnapshot::Kind::kHistogram;
      s.count = histogram->count();
      s.sum_seconds = histogram->sum();
      s.help = family.help;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

}  // namespace rfv
