// Tests for the metrics registry (src/common/metrics.h,
// docs/observability.md): log-bucket geometry, percentile accuracy against
// a sorted-vector oracle, concurrent recording, snapshot self-consistency,
// static-registration linkage (instrumented .cc files in the library put
// their metrics in the registry), instance scopes, the deterministic
// binary snapshot codec, and the Prometheus text writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace hydra {
namespace {

// Registry state is process-global, so these tests define their own
// uniquely-named metrics and assert on those — never on totals that other
// tests (or library instrumentation) could also bump.

HYDRA_METRIC_COUNTER(g_test_counter, "test/metrics/counter");
HYDRA_METRIC_GAUGE(g_test_gauge, "test/metrics/gauge");
HYDRA_METRIC_HISTOGRAM(g_test_histogram, "test/metrics/histogram");

const CounterSnapshot* FindCounter(const MetricsSnapshot& snapshot,
                                   const std::string& name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* FindGauge(const MetricsSnapshot& snapshot,
                               const std::string& name) {
  for (const auto& g : snapshot.gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* FindHistogram(const MetricsSnapshot& snapshot,
                                       const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---- bucket geometry -----------------------------------------------------

TEST(HistogramBuckets, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const int i = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLower(i), v);
    EXPECT_EQ(Histogram::BucketUpper(i), v + 1);
  }
}

TEST(HistogramBuckets, EveryValueLandsInsideItsBucket) {
  std::mt19937_64 rng(42);
  std::vector<uint64_t> probes = {0, 1, 15, 16, 17, 31, 32, 33,
                                  255, 256, 1000, 1000000, UINT64_MAX};
  for (int i = 0; i < 1000; ++i) {
    // Exercise all octaves: a random mantissa under a random bit width.
    probes.push_back(rng() >> (rng() % 64));
  }
  for (const uint64_t v : probes) {
    const int i = Histogram::BucketIndex(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, Histogram::kNumBuckets);
    EXPECT_GE(v, Histogram::BucketLower(i)) << "value " << v;
    if (Histogram::BucketUpper(i) != UINT64_MAX) {
      EXPECT_LT(v, Histogram::BucketUpper(i)) << "value " << v;
    }
  }
}

TEST(HistogramBuckets, BoundariesTileWithoutGapsOrOverlap) {
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    if (Histogram::BucketUpper(i - 1) == UINT64_MAX) break;
    EXPECT_EQ(Histogram::BucketUpper(i - 1), Histogram::BucketLower(i))
        << "gap between buckets " << i - 1 << " and " << i;
  }
}

TEST(HistogramBuckets, RelativeWidthIsBounded) {
  // From the first full octave on, width <= lower/16 (6.25%).
  for (int i = Histogram::kSubBuckets * 2; i < Histogram::kNumBuckets; ++i) {
    const uint64_t lower = Histogram::BucketLower(i);
    const uint64_t upper = Histogram::BucketUpper(i);
    if (upper == UINT64_MAX) break;
    EXPECT_LE(upper - lower, lower / Histogram::kSubBuckets)
        << "bucket " << i << " [" << lower << ", " << upper << ")";
  }
}

// ---- percentiles against an oracle ---------------------------------------

// Records `values` into a fresh histogram and checks every requested
// quantile against the sorted-vector order statistic: the estimate must be
// >= the true value and within one bucket width above it.
void CheckPercentiles(std::vector<uint64_t> values) {
  Histogram h("test/metrics/oracle_scratch");
  for (const uint64_t v : values) h.Record(v);
  const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
  const HistogramSnapshot* s =
      FindHistogram(snapshot, "test/metrics/oracle_scratch");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->count, values.size());

  std::sort(values.begin(), values.end());
  for (const double q : {0.0, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0}) {
    const double r = std::ceil(q * static_cast<double>(values.size())) - 1;
    const size_t rank =
        r <= 0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(r));
    const uint64_t truth = values[rank];
    const uint64_t est = s->Percentile(q);
    EXPECT_GE(est, truth) << "q=" << q;
    // est is the inclusive upper bound of truth's bucket.
    const int bucket = Histogram::BucketIndex(truth);
    EXPECT_LE(est, Histogram::BucketUpper(bucket) == UINT64_MAX
                       ? UINT64_MAX
                       : Histogram::BucketUpper(bucket) - 1)
        << "q=" << q;
  }
}

TEST(HistogramPercentiles, UniformValues) {
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 10000; ++v) values.push_back(v);
  CheckPercentiles(std::move(values));
}

TEST(HistogramPercentiles, LogNormalLatencies) {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(6.0, 1.5);  // ~400us median
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<uint64_t>(dist(rng)));
  }
  CheckPercentiles(std::move(values));
}

TEST(HistogramPercentiles, ValuesStraddlingBucketBoundaries) {
  std::vector<uint64_t> values;
  for (int o = 0; o < 40; ++o) {
    const uint64_t p = 1ull << o;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  CheckPercentiles(std::move(values));
}

TEST(HistogramPercentiles, EmptyAndSingleton) {
  Histogram h("test/metrics/empty_scratch");
  {
    const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
    const HistogramSnapshot* s =
        FindHistogram(snapshot, "test/metrics/empty_scratch");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 0u);
    EXPECT_EQ(s->Percentile(0.5), 0u);
  }
  h.Record(777);
  {
    const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
    const HistogramSnapshot* s =
        FindHistogram(snapshot, "test/metrics/empty_scratch");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 1u);
    EXPECT_EQ(s->sum, 777u);
    EXPECT_EQ(s->max, 777u);
    const uint64_t est = s->Percentile(0.5);
    EXPECT_GE(est, 777u);
    EXPECT_LE(est, 777u + 777u / Histogram::kSubBuckets);
  }
}

// ---- concurrency ---------------------------------------------------------

TEST(MetricsConcurrency, ParallelRecordingLosesNothing) {
  // Run under TSan to verify the lock-free record path; the count/sum
  // checks catch lost updates under any build.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  Counter counter("test/metrics/mt_counter");
  Histogram histogram("test/metrics/mt_histogram");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Inc();
        histogram.Record(rng() % 100000);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
}

TEST(MetricsConcurrency, SnapshotWhileRecordingStaysCoherent) {
  Histogram histogram("test/metrics/live_histogram");
  std::atomic<bool> stop{false};
  std::thread writer([&histogram, &stop] {
    uint64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      histogram.Record(v++ % 5000);
    }
  });
  while (histogram.count() == 0) std::this_thread::yield();
  uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
    const HistogramSnapshot* s =
        FindHistogram(snapshot, "test/metrics/live_histogram");
    ASSERT_NE(s, nullptr);
    // Count is derived from the bucket array, so it always equals the sum
    // of the buckets in the same snapshot, and it never goes backwards.
    uint64_t bucket_total = 0;
    for (const auto& [index, n] : s->buckets) bucket_total += n;
    EXPECT_EQ(s->count, bucket_total);
    EXPECT_GE(s->count, last_count);
    last_count = s->count;
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(last_count, 0u);
}

// ---- registry ------------------------------------------------------------

TEST(MetricRegistryTest, StaticRegistrationIsVisible) {
  // The file-scope globals above registered before main().
  EXPECT_EQ(MetricRegistry::FindCounter("test/metrics/counter"),
            &g_test_counter);
  EXPECT_EQ(MetricRegistry::FindGauge("test/metrics/gauge"), &g_test_gauge);
  EXPECT_EQ(MetricRegistry::FindHistogram("test/metrics/histogram"),
            &g_test_histogram);
  EXPECT_EQ(MetricRegistry::FindCounter("test/metrics/absent"), nullptr);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndContainsRegisteredNames) {
  g_test_counter.Inc(3);
  g_test_gauge.Set(-17);
  const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
  const CounterSnapshot* c = FindCounter(snapshot, "test/metrics/counter");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->value, 3u);
  const GaugeSnapshot* g = FindGauge(snapshot, "test/metrics/gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, -17);
  EXPECT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_TRUE(std::is_sorted(
      snapshot.gauges.begin(), snapshot.gauges.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_TRUE(std::is_sorted(
      snapshot.histograms.begin(), snapshot.histograms.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST(MetricRegistryTest, ScopedMetricUnregistersOnDestruction) {
  {
    Counter scoped("test/metrics/scoped");
    EXPECT_EQ(MetricRegistry::FindCounter("test/metrics/scoped"), &scoped);
  }
  EXPECT_EQ(MetricRegistry::FindCounter("test/metrics/scoped"), nullptr);
}

// ---- instance scopes -----------------------------------------------------

TEST(MetricScopeTest, DuplicateNamesGetFirstFreeSuffix) {
  MetricScope first("test_scope");
  {
    MetricScope second("test_scope");
    MetricScope third("test_scope");
    EXPECT_EQ(first.prefix(), "test_scope");
    EXPECT_EQ(second.prefix(), "test_scope#2");
    EXPECT_EQ(third.prefix(), "test_scope#3");
    EXPECT_EQ(second.Name("x"), "test_scope#2/x");
  }
  // With #2 and #3 released, the next instance reuses the lowest free one.
  MetricScope again("test_scope");
  EXPECT_EQ(again.prefix(), "test_scope#2");
}

TEST(MetricScopeTest, NamesAppearUnderPrefixAndFreeOnDestruction) {
  {
    MetricScope scope("test_inst");
    Counter events(scope.Name("events"));
    Gauge level(scope.Name("level"));
    events.Inc(11);
    level.Set(-22);
    const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
    const CounterSnapshot* c = FindCounter(snapshot, "test_inst/events");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 11u);
    const GaugeSnapshot* g = FindGauge(snapshot, "test_inst/level");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->value, -22);
  }
  const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
  EXPECT_EQ(FindCounter(snapshot, "test_inst/events"), nullptr);
  EXPECT_EQ(FindGauge(snapshot, "test_inst/level"), nullptr);
  // Prefix and names are free again: a new instance re-registers them
  // (a duplicate name would abort) and starts from zero.
  MetricScope scope("test_inst");
  EXPECT_EQ(scope.prefix(), "test_inst");
  Counter events(scope.Name("events"));
  EXPECT_EQ(MetricRegistry::FindCounter("test_inst/events"), &events);
  EXPECT_EQ(events.value(), 0u);
}

// ---- timing gate ---------------------------------------------------------

TEST(TimingGate, DisabledTimerRecordsNothing) {
  Histogram h("test/metrics/gated");
  metrics::SetTimingEnabled(false);
  {
    ScopedLatencyTimer timer(&h);
    EXPECT_FALSE(timer.active());
    EXPECT_EQ(timer.elapsed_us(), 0u);
  }
  EXPECT_EQ(h.count(), 0u);
  metrics::SetTimingEnabled(true);
  {
    ScopedLatencyTimer timer(&h);
    EXPECT_TRUE(timer.active());
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(TimingGate, NullHistogramIsSafe) {
  ScopedLatencyTimer timer(nullptr);  // conditional-timing idiom
  EXPECT_FALSE(timer.active());
}

// ---- serialization -------------------------------------------------------

TEST(MetricsCodec, RoundTripsAndIsDeterministic) {
  g_test_counter.Inc();
  g_test_histogram.Record(123);
  g_test_histogram.Record(456789);
  const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
  const std::string bytes = SerializeMetricsSnapshot(snapshot);
  EXPECT_EQ(bytes, SerializeMetricsSnapshot(snapshot));

  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsSnapshot(bytes, &parsed).ok());
  ASSERT_EQ(parsed.counters.size(), snapshot.counters.size());
  ASSERT_EQ(parsed.gauges.size(), snapshot.gauges.size());
  ASSERT_EQ(parsed.histograms.size(), snapshot.histograms.size());
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    EXPECT_EQ(parsed.counters[i].name, snapshot.counters[i].name);
    EXPECT_EQ(parsed.counters[i].value, snapshot.counters[i].value);
  }
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    EXPECT_EQ(parsed.histograms[i].name, snapshot.histograms[i].name);
    EXPECT_EQ(parsed.histograms[i].count, snapshot.histograms[i].count);
    EXPECT_EQ(parsed.histograms[i].sum, snapshot.histograms[i].sum);
    EXPECT_EQ(parsed.histograms[i].max, snapshot.histograms[i].max);
    EXPECT_EQ(parsed.histograms[i].buckets, snapshot.histograms[i].buckets);
  }
  // The round trip preserves percentile math, not just raw fields.
  const HistogramSnapshot* h = FindHistogram(parsed, "test/metrics/histogram");
  ASSERT_NE(h, nullptr);
  const HistogramSnapshot* orig =
      FindHistogram(snapshot, "test/metrics/histogram");
  EXPECT_EQ(h->Percentile(0.99), orig->Percentile(0.99));
}

TEST(MetricsCodec, RejectsGarbage) {
  MetricsSnapshot scratch;
  EXPECT_FALSE(ParseMetricsSnapshot("", &scratch).ok());
  EXPECT_FALSE(ParseMetricsSnapshot("nonsense", &scratch).ok());
  std::string truncated =
      SerializeMetricsSnapshot(MetricRegistry::Snapshot());
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(ParseMetricsSnapshot(truncated, &scratch).ok());
}

// ---- Prometheus text -----------------------------------------------------

TEST(PrometheusTextTest, EmitsSanitizedSeries) {
  g_test_counter.Inc();
  g_test_histogram.Record(42);
  const std::string text = PrometheusText(MetricRegistry::Snapshot());
  EXPECT_NE(text.find("hydra_test_metrics_counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hydra_test_metrics_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("hydra_test_metrics_histogram_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("hydra_test_metrics_histogram_count"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  // No raw '/' survives sanitization in a metric name.
  for (size_t pos = 0; (pos = text.find("hydra_", pos)) != std::string::npos;
       ++pos) {
    const size_t end = text.find_first_of(" {", pos);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(text.find('/', pos), text.find('/', end))
        << "metric name contains '/': " << text.substr(pos, end - pos);
  }
}

}  // namespace
}  // namespace hydra
