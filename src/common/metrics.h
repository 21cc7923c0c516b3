// Metrics — the repo-wide observability registry (docs/observability.md).
//
// Built the same way the failpoint registry is (src/common/failpoint.h):
// every metric self-registers by name into a leaked singleton, so
// static-initialization order never loses a namespace-scope global, and
// the hot path never takes a lock — recording is one relaxed fetch_add.
//
// Three metric kinds:
//
//   Counter    monotonic u64 (events, rows, retries).
//   Gauge      signed level (bytes resident, sessions open).
//   Histogram  log-bucketed value distribution: power-of-two octaves split
//              into 16 linear sub-buckets (<= 6.25% relative bucket width),
//              with p50/p95/p99/p99.9 extracted from a snapshot — never on
//              the record path.
//
// Defining and recording (namespace scope of the instrumented .cc):
//
//   HYDRA_METRIC_HISTOGRAM(g_next_batch_us, "serve/next_batch_us");
//
//   StatusOr<BatchResult> NextBatch(...) {
//     ScopedLatencyTimer timer(&g_next_batch_us);   // records on scope exit
//     ...
//   }
//
// Latency *timing* sites (the two clock reads) are gated on a global flag
// so `HYDRA_METRICS=off` restores a one-relaxed-load hot path; counter and
// gauge updates are always on — they are already a single fetch_add.
//
// Per-instance state (a server's ServeStats/NetStats) lives in Counter and
// Gauge members named under a MetricScope: the instance reserves a prefix
// ("serve", "net", suffixed "#2"... when several instances coexist) and
// its tallies are ordinary registered metrics, so the registry is the one
// store that stats() accessors, the wire (GetMetrics), the Prometheus
// writer, and tools/hydra_stats all read.
//
// Thread safety: everything is thread-safe. Record/Inc/Set are lock-free;
// registration, scopes, and Snapshot take the registry mutex.

#ifndef HYDRA_COMMON_METRICS_H_
#define HYDRA_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hydra {

// --- timing gate ---------------------------------------------------------

namespace metrics {

// Whether latency timers read the clock. Default on; HYDRA_METRICS=off (or
// =0) disables at startup, SetTimingEnabled flips at runtime. The check is
// one relaxed atomic load.
bool TimingEnabled();
void SetTimingEnabled(bool enabled);

// Microseconds on the steady clock (latency math; not wall time).
uint64_t MonotonicMicros();

}  // namespace metrics

// --- metric kinds --------------------------------------------------------

class Counter {
 public:
  // Registers under `name`, which must be unique among live metrics:
  // namespace-scope globals (like failpoints) or per-instance members named
  // under a MetricScope. The destructor unregisters.
  explicit Counter(std::string name);
  ~Counter();

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(std::string name);
  ~Gauge();

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  // Bucketing: values below kSubBuckets get exact unit buckets; from there
  // each power-of-two octave [2^o, 2^(o+1)) splits into kSubBuckets linear
  // sub-buckets of width 2^(o-kSubBucketBits). Bucket width is therefore
  // at most 1/kSubBuckets of the bucket's lower bound — percentiles read
  // from the snapshot are exact to ~6.25%.
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 16
  static constexpr int kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 976

  explicit Histogram(const char* name);
  ~Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // One relaxed fetch_add on the bucket, one on the sum, plus a CAS loop
  // on max that almost never retries (max changes rarely at steady state).
  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const;  // sum over buckets (consistent with a snapshot)
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  // The bucket v lands in, and bucket i's value range [lower, upper).
  // BucketUpper saturates at UINT64_MAX for the top octave.
  static int BucketIndex(uint64_t v);
  static uint64_t BucketLower(int i);
  static uint64_t BucketUpper(int i);

 private:
  friend class MetricRegistry;

  const std::string name_;
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

// Reads the clock at construction and records elapsed microseconds into
// the histogram at scope exit — unless timing is disabled, in which case
// the whole object is one relaxed load. `elapsed_us()` mid-scope feeds
// slow-op logging off the very same measurement.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* h) {
    if (metrics::TimingEnabled()) {
      h_ = h;
      start_us_ = metrics::MonotonicMicros();
    }
  }
  ~ScopedLatencyTimer() {
    if (h_ != nullptr) h_->Record(elapsed_us());
  }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  bool active() const { return h_ != nullptr; }
  uint64_t elapsed_us() const {
    return h_ == nullptr ? 0 : metrics::MonotonicMicros() - start_us_;
  }

 private:
  Histogram* h_ = nullptr;
  uint64_t start_us_ = 0;
};

// --- snapshots -----------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;  // == sum of bucket counts, by construction
  uint64_t sum = 0;
  uint64_t max = 0;
  // Non-empty buckets only, ordered by index.
  std::vector<std::pair<int32_t, uint64_t>> buckets;

  // Value at quantile q in [0, 1]: the inclusive upper bound of the bucket
  // holding the rank-ceil(q*count) sample — i.e. the largest value that
  // could have landed there, so the estimate is within one bucket width
  // (<= ~6.25%) above the true order statistic. 0 when empty.
  uint64_t Percentile(double q) const;
};

struct MetricsSnapshot {
  // Each section sorted by name.
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

// --- instance scopes -----------------------------------------------------

// RAII reservation of a per-instance metric prefix. The first live scope
// asking for "serve" gets "serve", the next "serve#2", and so on (first free
// suffix); the prefix frees up again when the scope dies. An instance names
// its Counter/Gauge members under its scope and declares the scope first,
// so they unregister before the prefix can be handed out again.
class MetricScope {
 public:
  explicit MetricScope(const std::string& name);
  ~MetricScope();

  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

  // The reserved (possibly suffixed) prefix.
  const std::string& prefix() const { return prefix_; }
  // `metric` under this scope: Name("rows_served") == "serve/rows_served".
  std::string Name(const std::string& metric) const {
    return prefix_ + "/" + metric;
  }

 private:
  std::string prefix_;
};

// --- the registry --------------------------------------------------------

class MetricRegistry {
 public:
  // Snapshots every registered metric. Deterministic: sorted by name, so
  // two quiesced snapshots of the same state are identical.
  static MetricsSnapshot Snapshot();

  // Lookups for tests and diagnostics; nullptr when absent.
  static Counter* FindCounter(const std::string& name);
  static Gauge* FindGauge(const std::string& name);
  static Histogram* FindHistogram(const std::string& name);

  // All registered metric names, sorted.
  static std::vector<std::string> ListRegistered();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  friend class MetricScope;

  static void Register(const std::string& name, Counter* c);
  static void Register(const std::string& name, Gauge* g);
  static void Register(const std::string& name, Histogram* h);
  static void Unregister(const Counter* c);
  static void Unregister(const Gauge* g);
  static void Unregister(const Histogram* h);
  static std::string RegisterScope(const std::string& name);
  static void UnregisterScope(const std::string& prefix);
};

// --- exposition ----------------------------------------------------------

// Deterministic binary encoding of a snapshot — what the GetMetrics wire
// opcode ships. Two snapshots of identical registry state serialize to
// identical bytes (tests/net_test.cc holds the wire to that).
std::string SerializeMetricsSnapshot(const MetricsSnapshot& snapshot);
Status ParseMetricsSnapshot(const std::string& bytes,
                            MetricsSnapshot* snapshot);

// Prometheus text exposition (text/plain version 0.0.4): counters and
// gauges one sample each, histograms as cumulative _bucket{le=...} series
// plus _sum/_count. Metric names sanitize '/' to '_' under a "hydra_"
// prefix.
std::string PrometheusText(const MetricsSnapshot& snapshot);

}  // namespace hydra

// Defines a metric global. Place at namespace scope in the .cc that hosts
// the instrumented site (mirrors HYDRA_FAILPOINT_DEFINE).
#define HYDRA_METRIC_COUNTER(var, name) ::hydra::Counter var{name}
#define HYDRA_METRIC_GAUGE(var, name) ::hydra::Gauge var{name}
#define HYDRA_METRIC_HISTOGRAM(var, name) ::hydra::Histogram var{name}

#endif  // HYDRA_COMMON_METRICS_H_
