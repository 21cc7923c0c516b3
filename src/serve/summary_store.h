// SummaryStore — the serving layer's registry of virtual databases.
//
// Each registered id names a summary file on disk. Acquire() returns a
// refcounted lease over the loaded summary plus a TupleGenerator built on
// it; the store keeps loaded entries behind an LRU byte-budget cache
// (ServeOptions::cache_bytes) and evicts only unpinned entries, so a lease
// is always valid for its lifetime while summaries nobody is using make
// room for hot ones. Loads go through the hardened ReadSummary, so a
// corrupt or truncated file surfaces as a Status, never a crash.
//
// Transient load failures (kIoError / kUnavailable — an evicted summary
// being reloaded while the disk hiccups) are retried with capped
// exponential backoff and deterministic per-(id, attempt) jitter before
// the error escapes to the caller (docs/robustness.md). Permanent errors
// (corrupt file, unregistered id) never retry.
//
// Concurrency: all operations are thread-safe. A load happens outside the
// store mutex; concurrent acquirers of the same id wait for the first
// loader instead of reading the file twice.

#ifndef HYDRA_SERVE_SUMMARY_STORE_H_
#define HYDRA_SERVE_SUMMARY_STORE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "hydra/summary.h"
#include "hydra/tuple_generator.h"

namespace hydra {

namespace serve_internal {
struct StoreEntry;
}  // namespace serve_internal

class SummaryStore;

// Movable RAII pin on one loaded summary. While any lease on an entry is
// live the entry cannot be evicted; destruction releases the pin (and lets
// an over-budget cache shrink).
class SummaryLease {
 public:
  SummaryLease() = default;
  SummaryLease(SummaryLease&& other) noexcept;
  SummaryLease& operator=(SummaryLease&& other) noexcept;
  SummaryLease(const SummaryLease&) = delete;
  SummaryLease& operator=(const SummaryLease&) = delete;
  ~SummaryLease();

  bool valid() const { return entry_ != nullptr; }
  const DatabaseSummary& summary() const;
  const TupleGenerator& generator() const;

 private:
  friend class SummaryStore;
  SummaryLease(SummaryStore* store, serve_internal::StoreEntry* entry)
      : store_(store), entry_(entry) {}

  SummaryStore* store_ = nullptr;
  serve_internal::StoreEntry* entry_ = nullptr;
};

// Backoff schedule for transient load failures. `retries` additional
// attempts follow a failed load; attempt k sleeps
// min(max_ms, base_ms << k) plus a deterministic jitter derived from
// (summary id, k) — no RNG state, so chaos runs replay exactly.
struct LoadRetryPolicy {
  int retries = 0;
  int64_t base_ms = 2;
  int64_t max_ms = 100;
};

class SummaryStore {
 public:
  // Keeps its cache tallies as metrics under `scope` (the owning server's),
  // which must outlive the store.
  SummaryStore(const MetricScope& scope, uint64_t cache_bytes,
               LoadRetryPolicy retry = {});
  ~SummaryStore();

  SummaryStore(const SummaryStore&) = delete;
  SummaryStore& operator=(const SummaryStore&) = delete;

  // Records that `id` is served from the summary file at `path`. The file
  // is not read until the first Acquire. Fails on duplicate ids.
  Status Register(const std::string& id, const std::string& path);

  // Pins `id` into the cache (loading it from disk on a miss) and returns
  // the lease. NotFound for unregistered ids; the ReadSummary error for
  // unreadable/corrupt files.
  StatusOr<SummaryLease> Acquire(const std::string& id);

  // Plain reads of the store's metrics (names in docs/observability.md).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t cached_bytes = 0;
    uint64_t resident = 0;
    uint64_t load_retries = 0;  // transient-failure attempts retried
  };
  Stats stats() const;

  // True while resident bytes exceed the budget (every entry pinned): the
  // serve layer's signal to degrade work quanta before refusing service.
  bool Overcommitted() const;

 private:
  friend class SummaryLease;

  // Drops unpinned entries, LRU first, until the budget is met (or only
  // pinned/loading entries remain). Caller holds mu_.
  void EvictToFitLocked();
  void Release(serve_internal::StoreEntry* entry);
  // ReadSummary plus the transient-failure retry loop; runs unlocked.
  StatusOr<DatabaseSummary> LoadWithRetry(const std::string& id,
                                          const std::string& path);

  // Resident bytes; written under mu_, read lock-free by Overcommitted().
  uint64_t cached_bytes() const {
    return static_cast<uint64_t>(cached_bytes_.value());
  }

  const uint64_t cache_bytes_;
  const LoadRetryPolicy retry_;
  Counter hits_;
  Counter misses_;
  Counter evictions_;
  Counter load_retries_;
  Gauge cached_bytes_;  // the resident byte total itself
  Gauge resident_summaries_;
  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  std::map<std::string, std::string> paths_;
  // Heap-allocated entries: pointers stay stable for leases while the map
  // mutates. Only unpinned entries are ever erased.
  std::map<std::string, std::unique_ptr<serve_internal::StoreEntry>> resident_;
  uint64_t lru_clock_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_SERVE_SUMMARY_STORE_H_
