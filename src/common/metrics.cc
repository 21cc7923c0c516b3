#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "common/logging.h"

namespace hydra {

namespace metrics {

namespace {

// Constant-initialized: readable from any static initializer, no guard on
// the hot path (the same reasoning as a failpoint's armed_ flag).
std::atomic<int> g_timing_enabled{1};

// Applies HYDRA_METRICS once, on the first metric registration — the same
// static-init-safe hook point the failpoint registry uses for its env var.
void ApplyEnvOnce() {
  static const bool applied = [] {
    if (const char* env = std::getenv("HYDRA_METRICS")) {
      const std::string value(env);
      if (value == "off" || value == "0" || value == "false") {
        g_timing_enabled.store(0, std::memory_order_relaxed);
      }
    }
    return true;
  }();
  (void)applied;
}

}  // namespace

bool TimingEnabled() {
  return g_timing_enabled.load(std::memory_order_relaxed) != 0;
}

void SetTimingEnabled(bool enabled) {
  g_timing_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace metrics

namespace {

struct Registry {
  std::mutex mu;
  // Ordered maps: snapshots come out name-sorted for free, which is what
  // makes the serialized form deterministic.
  std::map<std::string, Counter*> counters;
  std::map<std::string, Gauge*> gauges;
  std::map<std::string, Histogram*> histograms;
  std::set<std::string> scopes;  // reserved instance prefixes
};

// Leaked singleton: metrics are namespace-scope globals whose destructors
// run at exit in unspecified order relative to any registry with a
// destructor — a leaked registry is valid for all of them (the failpoint
// registry pattern, including the rule that this initializer must not
// re-enter another function-local static mid-construction).
Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

template <typename Map, typename T>
void RegisterIn(Map& map, const std::string& name, T* metric) {
  HYDRA_CHECK_MSG(map.emplace(name, metric).second,
                  "duplicate metric " << name);
}

}  // namespace

// --- Counter / Gauge / Histogram lifecycle -------------------------------

Counter::Counter(std::string name) : name_(std::move(name)) {
  MetricRegistry::Register(name_, this);
}
Counter::~Counter() { MetricRegistry::Unregister(this); }

Gauge::Gauge(std::string name) : name_(std::move(name)) {
  MetricRegistry::Register(name_, this);
}
Gauge::~Gauge() { MetricRegistry::Unregister(this); }

Histogram::Histogram(const char* name) : name_(name) {
  MetricRegistry::Register(name_, this);
}
Histogram::~Histogram() { MetricRegistry::Unregister(this); }

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

int Histogram::BucketIndex(uint64_t v) {
  if (v < static_cast<uint64_t>(kSubBuckets)) return static_cast<int>(v);
  const int octave = 63 - __builtin_clzll(v);
  const int sub = static_cast<int>((v >> (octave - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  return kSubBuckets + (octave - kSubBucketBits) * kSubBuckets + sub;
}

uint64_t Histogram::BucketLower(int i) {
  if (i < kSubBuckets) return static_cast<uint64_t>(i);
  const int r = i - kSubBuckets;
  const int octave = kSubBucketBits + r / kSubBuckets;
  const int sub = r % kSubBuckets;
  return (1ull << octave) +
         (static_cast<uint64_t>(sub) << (octave - kSubBucketBits));
}

uint64_t Histogram::BucketUpper(int i) {
  if (i >= kNumBuckets - 1) return UINT64_MAX;  // top bucket: saturate
  if (i < kSubBuckets) return static_cast<uint64_t>(i) + 1;
  const int octave = kSubBucketBits + (i - kSubBuckets) / kSubBuckets;
  return BucketLower(i) + (1ull << (octave - kSubBucketBits));
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::min(count, std::max<uint64_t>(1, rank));
  uint64_t cum = 0;
  for (const auto& [index, bucket_count] : buckets) {
    cum += bucket_count;
    if (cum >= rank) {
      const uint64_t upper = Histogram::BucketUpper(index);
      return upper == UINT64_MAX ? UINT64_MAX : upper - 1;
    }
  }
  return 0;  // unreachable: count == sum of bucket counts
}

// --- instance scopes -----------------------------------------------------

MetricScope::MetricScope(const std::string& name)
    : prefix_(MetricRegistry::RegisterScope(name)) {}

MetricScope::~MetricScope() { MetricRegistry::UnregisterScope(prefix_); }

// --- registry ------------------------------------------------------------

void MetricRegistry::Register(const std::string& name, Counter* c) {
  metrics::ApplyEnvOnce();
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  RegisterIn(registry.counters, name, c);
}

void MetricRegistry::Register(const std::string& name, Gauge* g) {
  metrics::ApplyEnvOnce();
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  RegisterIn(registry.gauges, name, g);
}

void MetricRegistry::Register(const std::string& name, Histogram* h) {
  metrics::ApplyEnvOnce();
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  RegisterIn(registry.histograms, name, h);
}

void MetricRegistry::Unregister(const Counter* c) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.counters.erase(c->name());
}

void MetricRegistry::Unregister(const Gauge* g) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.gauges.erase(g->name());
}

void MetricRegistry::Unregister(const Histogram* h) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.histograms.erase(h->name());
}

std::string MetricRegistry::RegisterScope(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  // First free suffix: a second server instance counts under "serve#2",
  // and the name frees up again when the instance (and its scope) dies.
  std::string prefix = name;
  for (int n = 2; registry.scopes.count(prefix) != 0; ++n) {
    prefix = name + "#" + std::to_string(n);
  }
  registry.scopes.insert(prefix);
  return prefix;
}

void MetricRegistry::UnregisterScope(const std::string& prefix) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.scopes.erase(prefix);
}

MetricsSnapshot MetricRegistry::Snapshot() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(registry.counters.size());
  for (const auto& [name, counter] : registry.counters) {
    snapshot.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  snapshot.gauges.reserve(registry.gauges.size());
  for (const auto& [name, gauge] : registry.gauges) {
    snapshot.gauges.push_back(GaugeSnapshot{name, gauge->value()});
  }
  snapshot.histograms.reserve(registry.histograms.size());
  for (const auto& [name, histogram] : registry.histograms) {
    HistogramSnapshot h;
    h.name = name;
    h.sum = histogram->sum();
    h.max = histogram->max();
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t c =
          histogram->buckets_[i].load(std::memory_order_relaxed);
      if (c == 0) continue;
      h.buckets.emplace_back(i, c);
      h.count += c;
    }
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

Counter* MetricRegistry::FindCounter(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.counters.find(name);
  return it == registry.counters.end() ? nullptr : it->second;
}

Gauge* MetricRegistry::FindGauge(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.gauges.find(name);
  return it == registry.gauges.end() ? nullptr : it->second;
}

Histogram* MetricRegistry::FindHistogram(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.histograms.find(name);
  return it == registry.histograms.end() ? nullptr : it->second;
}

std::vector<std::string> MetricRegistry::ListRegistered() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.counters.size() + registry.gauges.size() +
                registry.histograms.size());
  for (const auto& [name, c] : registry.counters) names.push_back(name);
  for (const auto& [name, g] : registry.gauges) names.push_back(name);
  for (const auto& [name, h] : registry.histograms) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

// --- serialization -------------------------------------------------------
// Self-contained little-endian encoding (src/common cannot depend on the
// net layer's WireWriter; the format is deliberately the same style).

namespace {

constexpr uint32_t kSnapshotMagic = 0x54454d48u;  // "HMET"
constexpr uint8_t kSnapshotVersion = 1;

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  Status Need(size_t n) {
    return size - pos >= n
               ? Status::OK()
               : Status::InvalidArgument("truncated metrics snapshot");
  }
  Status U8(uint8_t* v) {
    HYDRA_RETURN_IF_ERROR(Need(1));
    *v = data[pos++];
    return Status::OK();
  }
  Status U32(uint32_t* v) {
    HYDRA_RETURN_IF_ERROR(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return Status::OK();
  }
  Status U64(uint64_t* v) {
    HYDRA_RETURN_IF_ERROR(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return Status::OK();
  }
  Status Str(std::string* s) {
    uint32_t len;
    HYDRA_RETURN_IF_ERROR(U32(&len));
    HYDRA_RETURN_IF_ERROR(Need(len));
    s->assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return Status::OK();
  }
};

}  // namespace

std::string SerializeMetricsSnapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  AppendU32(&out, kSnapshotMagic);
  AppendU8(&out, kSnapshotVersion);
  AppendU32(&out, static_cast<uint32_t>(snapshot.counters.size()));
  for (const CounterSnapshot& c : snapshot.counters) {
    AppendString(&out, c.name);
    AppendU64(&out, c.value);
  }
  AppendU32(&out, static_cast<uint32_t>(snapshot.gauges.size()));
  for (const GaugeSnapshot& g : snapshot.gauges) {
    AppendString(&out, g.name);
    AppendU64(&out, static_cast<uint64_t>(g.value));
  }
  AppendU32(&out, static_cast<uint32_t>(snapshot.histograms.size()));
  for (const HistogramSnapshot& h : snapshot.histograms) {
    AppendString(&out, h.name);
    AppendU64(&out, h.sum);
    AppendU64(&out, h.max);
    AppendU32(&out, static_cast<uint32_t>(h.buckets.size()));
    for (const auto& [index, count] : h.buckets) {
      AppendU32(&out, static_cast<uint32_t>(index));
      AppendU64(&out, count);
    }
  }
  return out;
}

Status ParseMetricsSnapshot(const std::string& bytes,
                            MetricsSnapshot* snapshot) {
  *snapshot = MetricsSnapshot();
  ByteReader reader{reinterpret_cast<const uint8_t*>(bytes.data()),
                    bytes.size()};
  uint32_t magic;
  uint8_t version;
  HYDRA_RETURN_IF_ERROR(reader.U32(&magic));
  HYDRA_RETURN_IF_ERROR(reader.U8(&version));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad metrics snapshot magic");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported metrics snapshot version");
  }
  uint32_t n;
  HYDRA_RETURN_IF_ERROR(reader.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    CounterSnapshot c;
    HYDRA_RETURN_IF_ERROR(reader.Str(&c.name));
    HYDRA_RETURN_IF_ERROR(reader.U64(&c.value));
    snapshot->counters.push_back(std::move(c));
  }
  HYDRA_RETURN_IF_ERROR(reader.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    GaugeSnapshot g;
    uint64_t raw;
    HYDRA_RETURN_IF_ERROR(reader.Str(&g.name));
    HYDRA_RETURN_IF_ERROR(reader.U64(&raw));
    g.value = static_cast<int64_t>(raw);
    snapshot->gauges.push_back(std::move(g));
  }
  HYDRA_RETURN_IF_ERROR(reader.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    HistogramSnapshot h;
    HYDRA_RETURN_IF_ERROR(reader.Str(&h.name));
    HYDRA_RETURN_IF_ERROR(reader.U64(&h.sum));
    HYDRA_RETURN_IF_ERROR(reader.U64(&h.max));
    uint32_t num_buckets;
    HYDRA_RETURN_IF_ERROR(reader.U32(&num_buckets));
    for (uint32_t b = 0; b < num_buckets; ++b) {
      uint32_t index;
      uint64_t count;
      HYDRA_RETURN_IF_ERROR(reader.U32(&index));
      HYDRA_RETURN_IF_ERROR(reader.U64(&count));
      if (index >= static_cast<uint32_t>(Histogram::kNumBuckets)) {
        return Status::InvalidArgument("metrics bucket index out of range");
      }
      h.buckets.emplace_back(static_cast<int32_t>(index), count);
      h.count += count;
    }
    snapshot->histograms.push_back(std::move(h));
  }
  if (reader.pos != reader.size) {
    return Status::InvalidArgument("trailing bytes in metrics snapshot");
  }
  return Status::OK();
}

// --- Prometheus text -----------------------------------------------------

namespace {

std::string PromName(const std::string& name) {
  std::string out = "hydra_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterSnapshot& c : snapshot.counters) {
    const std::string name = PromName(c.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    const std::string name = PromName(g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g.value) + "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string name = PromName(h.name);
    out += "# TYPE " + name + " histogram\n";
    uint64_t cum = 0;
    for (const auto& [index, count] : h.buckets) {
      cum += count;
      // le is the bucket's inclusive upper bound (integral values).
      const uint64_t upper = Histogram::BucketUpper(index);
      out += name + "_bucket{le=\"" +
             (upper == UINT64_MAX ? "+Inf" : std::to_string(upper - 1)) +
             "\"} " + std::to_string(cum) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum " + std::to_string(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace hydra
