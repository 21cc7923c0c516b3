#include "serve/summary_store.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "hydra/summary_io.h"

namespace hydra {

// End-to-end single-flight summary load: disk read plus any retry backoff.
// Cache hits record nothing — the histogram is the shape of the misses.
HYDRA_METRIC_HISTOGRAM(g_summary_load_us, "serve/summary_load_us");

// Fires inside the single-flight load, before ReadSummary touches the
// file: error(UNAVAILABLE,times=N) with N <= load retries makes the load
// succeed only after the backoff loop — the chaos harness's retry story.
HYDRA_FAILPOINT_DEFINE(g_fp_summary_load, "serve/summary_load");

namespace {

// FNV-1a then splitmix64 finalizer: a stateless jitter hash so the backoff
// schedule of (id, attempt) is reproducible across runs and threads.
uint64_t JitterHash(const std::string& id, int attempt) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= static_cast<uint64_t>(attempt);
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e9b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kUnavailable;
}

}  // namespace

namespace serve_internal {

// One loaded summary. The generator references the summary member, so the
// entry lives on the heap and is never moved after construction.
struct StoreEntry {
  std::string id;
  DatabaseSummary summary;
  std::unique_ptr<TupleGenerator> generator;
  uint64_t bytes = 0;
  int pins = 0;
  uint64_t lru_stamp = 0;
  bool loading = true;
};

}  // namespace serve_internal

using serve_internal::StoreEntry;

SummaryLease::SummaryLease(SummaryLease&& other) noexcept
    : store_(other.store_), entry_(other.entry_) {
  other.store_ = nullptr;
  other.entry_ = nullptr;
}

SummaryLease& SummaryLease::operator=(SummaryLease&& other) noexcept {
  if (this != &other) {
    if (entry_ != nullptr) store_->Release(entry_);
    store_ = other.store_;
    entry_ = other.entry_;
    other.store_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

SummaryLease::~SummaryLease() {
  if (entry_ != nullptr) store_->Release(entry_);
}

const DatabaseSummary& SummaryLease::summary() const {
  HYDRA_DCHECK(entry_ != nullptr);
  return entry_->summary;
}

const TupleGenerator& SummaryLease::generator() const {
  HYDRA_DCHECK(entry_ != nullptr);
  return *entry_->generator;
}

SummaryStore::SummaryStore(const MetricScope& scope, uint64_t cache_bytes,
                           LoadRetryPolicy retry)
    : cache_bytes_(cache_bytes),
      retry_(retry),
      hits_(scope.Name("cache_hits")),
      misses_(scope.Name("cache_misses")),
      evictions_(scope.Name("evictions")),
      load_retries_(scope.Name("load_retries")),
      cached_bytes_(scope.Name("cached_bytes")),
      resident_summaries_(scope.Name("resident_summaries")) {}

StatusOr<DatabaseSummary> SummaryStore::LoadWithRetry(
    const std::string& id, const std::string& path) {
  ScopedLatencyTimer timer(&g_summary_load_us);
  for (int attempt = 0;; ++attempt) {
    Status injected;
    if (g_fp_summary_load.armed()) injected = g_fp_summary_load.Fire();
    StatusOr<DatabaseSummary> loaded =
        injected.ok() ? ReadSummary(path) : StatusOr<DatabaseSummary>(injected);
    if (loaded.ok() || !IsTransient(loaded.status()) ||
        attempt >= retry_.retries) {
      return loaded;
    }
    load_retries_.Inc();
    const int64_t backoff = std::min(
        retry_.max_ms, retry_.base_ms << std::min(attempt, 30));
    // Deterministic jitter in [0, backoff]: desynchronizes concurrent
    // retriers without nondeterministic RNG state.
    const int64_t jitter =
        backoff > 0
            ? static_cast<int64_t>(JitterHash(id, attempt) %
                                   static_cast<uint64_t>(backoff + 1))
            : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff + jitter));
  }
}

SummaryStore::~SummaryStore() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, entry] : resident_) {
    HYDRA_CHECK_MSG(entry->pins == 0,
                    "SummaryStore destroyed with live lease on " << id);
  }
}

Status SummaryStore::Register(const std::string& id, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!paths_.emplace(id, path).second) {
    return Status::InvalidArgument("summary id already registered: " + id);
  }
  return Status::OK();
}

StatusOr<SummaryLease> SummaryStore::Acquire(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      StoreEntry* entry = it->second.get();
      if (entry->loading) {
        // Another thread is reading the file; wait for it to finish (or
        // fail, which erases the placeholder) and re-check.
        loaded_cv_.wait(lock);
        continue;
      }
      ++entry->pins;
      entry->lru_stamp = ++lru_clock_;
      hits_.Inc();
      return SummaryLease(this, entry);
    }
    const auto path_it = paths_.find(id);
    if (path_it == paths_.end()) {
      return Status::NotFound("summary id not registered: " + id);
    }
    // Miss: install a loading placeholder, read the file outside the lock,
    // then publish. Waiters above re-find the entry, so the placeholder's
    // address is the synchronization point.
    auto placeholder = std::make_unique<StoreEntry>();
    placeholder->id = id;
    StoreEntry* entry = placeholder.get();
    resident_.emplace(id, std::move(placeholder));
    resident_summaries_.Add(1);
    const std::string path = path_it->second;
    lock.unlock();
    StatusOr<DatabaseSummary> loaded = LoadWithRetry(id, path);
    lock.lock();
    if (!loaded.ok()) {
      resident_.erase(id);
      resident_summaries_.Add(-1);
      loaded_cv_.notify_all();
      return loaded.status();
    }
    entry->summary = std::move(*loaded);
    entry->generator = std::make_unique<TupleGenerator>(entry->summary);
    entry->bytes = entry->summary.ByteSize();
    entry->loading = false;
    entry->pins = 1;
    entry->lru_stamp = ++lru_clock_;
    cached_bytes_.Add(static_cast<int64_t>(entry->bytes));
    misses_.Inc();
    EvictToFitLocked();
    loaded_cv_.notify_all();
    return SummaryLease(this, entry);
  }
}

void SummaryStore::EvictToFitLocked() {
  while (cached_bytes() > cache_bytes_) {
    StoreEntry* victim = nullptr;
    for (const auto& [id, entry] : resident_) {
      if (entry->pins > 0 || entry->loading) continue;
      if (victim == nullptr || entry->lru_stamp < victim->lru_stamp) {
        victim = entry.get();
      }
    }
    if (victim == nullptr) return;  // everything left is pinned or loading
    cached_bytes_.Add(-static_cast<int64_t>(victim->bytes));
    evictions_.Inc();
    const std::string victim_id = victim->id;  // outlive the entry
    resident_.erase(victim_id);
    resident_summaries_.Add(-1);
  }
}

void SummaryStore::Release(StoreEntry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  HYDRA_DCHECK(entry->pins > 0);
  --entry->pins;
  // An over-budget cache could not shrink past this entry while it was
  // pinned; retry now that it is evictable.
  if (entry->pins == 0) EvictToFitLocked();
}

SummaryStore::Stats SummaryStore::stats() const {
  Stats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.cached_bytes = cached_bytes();
  s.resident = static_cast<uint64_t>(resident_summaries_.value());
  s.load_retries = load_retries_.value();
  return s;
}

bool SummaryStore::Overcommitted() const {
  return cached_bytes() > cache_bytes_;
}

}  // namespace hydra
