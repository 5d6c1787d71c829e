#include "common/metrics_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace rfv {
namespace {

TEST(CounterTest, IncrementAndDelta) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(FormatMetricLabelsTest, RendersPrometheusLabelSyntax) {
  EXPECT_EQ(FormatMetricLabels({}), "");
  EXPECT_EQ(FormatMetricLabels({{"method", "maxoa"}}), "{method=\"maxoa\"}");
  EXPECT_EQ(FormatMetricLabels({{"a", "1"}, {"b", "2"}}),
            "{a=\"1\",b=\"2\"}");
  // Quotes and backslashes in values are escaped.
  EXPECT_EQ(FormatMetricLabels({{"q", "say \"hi\""}}),
            "{q=\"say \\\"hi\\\"\"}");
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameCounter) {
  Counter* a = MetricsRegistry::Global().GetCounter(
      "rfv_test_same_total", {{"k", "v"}}, "help");
  Counter* b = MetricsRegistry::Global().GetCounter(
      "rfv_test_same_total", {{"k", "v"}});
  Counter* other = MetricsRegistry::Global().GetCounter(
      "rfv_test_same_total", {{"k", "w"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(MetricsRegistryTest, PrometheusTextHasHelpTypeAndValue) {
  Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_test_expo_total", {{"method", "direct"}}, "A test counter");
  c->Increment(7);
  const std::string text = MetricsRegistry::Global().ToPrometheusText();
  EXPECT_NE(text.find("# HELP rfv_test_expo_total A test counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE rfv_test_expo_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rfv_test_expo_total{method=\"direct\"} 7"),
            std::string::npos)
      << text;
}

TEST(HistogramTest, ObserveUpdatesCountSumAndBuckets) {
  Histogram h;
  h.Observe(0.00002);  // lands in the 4e-5 bucket
  h.Observe(0.5);      // lands in the 0.65536 bucket
  h.Observe(1000.0);   // beyond the largest bound: +Inf only
  EXPECT_EQ(h.count(), 3);
  EXPECT_NEAR(h.sum(), 1000.50002, 1e-3);
  const std::vector<double>& bounds = Histogram::BucketBounds();
  ASSERT_FALSE(bounds.empty());
  // Cumulative: every bound >= 0.65536 has seen two observations, the
  // out-of-range one only shows in count().
  EXPECT_EQ(h.BucketCount(0), 0);  // 1e-5 < 2e-5
  int64_t last = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    const int64_t cumulative = h.BucketCount(i);
    EXPECT_GE(cumulative, last) << "bucket counts must be cumulative";
    last = cumulative;
  }
  EXPECT_EQ(last, 2);
}

TEST(HistogramTest, PrometheusExpositionShape) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "rfv_test_latency_seconds", {}, "A test histogram");
  h->Observe(0.001);
  const std::string text = MetricsRegistry::Global().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE rfv_test_latency_seconds histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rfv_test_latency_seconds_bucket{le=\"+Inf\"} "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rfv_test_latency_seconds_sum "), std::string::npos);
  EXPECT_NE(text.find("rfv_test_latency_seconds_count 1"),
            std::string::npos);
}

TEST(HistogramTest, LabeledBucketSeriesMergeLe) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "rfv_test_labeled_seconds", {{"phase", "bind"}}, "labeled histogram");
  h->Observe(0.1);
  const std::string text = MetricsRegistry::Global().ToPrometheusText();
  // "le" joins the existing label set inside one brace pair.
  EXPECT_NE(
      text.find("rfv_test_labeled_seconds_bucket{phase=\"bind\",le=\""),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("rfv_test_labeled_seconds_count{phase=\"bind\"} 1"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace rfv
