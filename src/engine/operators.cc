#include "engine/operators.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "common/logging.h"
#include "common/metrics.h"

namespace hydra {

namespace {

HYDRA_METRIC_COUNTER(g_join_index_dense, "engine/join_index_dense");
HYDRA_METRIC_COUNTER(g_join_index_hashed, "engine/join_index_hashed");

// Rows per morsel under `ctx` (ExecOptions' default without one).
int64_t MorselRows(const ExecContext* ctx) {
  return std::max<int64_t>(
      1, ctx == nullptr ? ExecOptions{}.morsel_rows : ctx->morsel_rows());
}

// Runs fn(i) for i in [0, count) on the context's pool and blocks until all
// complete. Completion is tracked by a private WaitGroup (not via
// ThreadPool::Wait) so unrelated work in flight on the shared pool is never
// waited on.
void RunTasks(ExecContext* ctx, int count,
              const std::function<void(int)>& fn) {
  ThreadPool* pool = ctx == nullptr ? nullptr : ctx->pool();
  if (pool == nullptr) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  WaitGroup wg;
  wg.Add(count);
  for (int i = 0; i < count; ++i) {
    pool->Submit([&, i] {
      fn(i);
      wg.Done();
    });
  }
  wg.Wait();
}

}  // namespace

namespace internal {

// Plans [0, total_rows) into morsel_rows-sized rank ranges and emits one
// filled RowBlock per non-empty morsel, in rank order. With a parallel
// context up to 2*parallelism morsels are filled concurrently ahead of the
// consumer; emission order is fixed by morsel index, never by completion
// order, so the concatenated row stream is identical at any thread count.
class MorselPipeline {
 public:
  // fill(begin, end, out) produces rank range [begin, end) into `out`
  // (already Reset to the right width). It runs on pool workers and must
  // only read state that is immutable while the pipeline is live.
  using Fill = std::function<void(int64_t, int64_t, RowBlock*)>;

  MorselPipeline(ExecContext* ctx, int64_t total_rows, int num_columns,
                 Fill fill)
      : ctx_(ctx),
        total_rows_(total_rows),
        num_columns_(num_columns),
        fill_(std::move(fill)) {
    morsel_rows_ = MorselRows(ctx_);
    num_morsels_ = NumMorsels(ctx_, total_rows_);
    if (ctx_ != nullptr && ctx_->parallelism() > 1 && num_morsels_ > 1) {
      slots_.resize(static_cast<size_t>(
          std::min<int64_t>(num_morsels_, 2 * ctx_->parallelism())));
      for (size_t i = 0; i < slots_.size(); ++i) SubmitNext();
    }
  }

  // Waits out in-flight morsels: tasks capture `this` and the fill state,
  // so a scan destroyed mid-stream (a consumer that stops early, or a
  // cancel) must drain.
  ~MorselPipeline() { wg_.Wait(); }

  bool Next(RowBlock* out) {
    if (slots_.empty()) {  // sequential: fill straight into the caller
      while (next_emit_ < num_morsels_) {
        if (Cancelled()) return false;
        const int64_t begin = next_emit_ * morsel_rows_;
        const int64_t end = std::min(total_rows_, begin + morsel_rows_);
        ++next_emit_;
        out->Reset(num_columns_);
        fill_(begin, end, out);
        if (!out->empty()) return true;
      }
      return false;
    }
    while (next_emit_ < num_morsels_) {
      // Cancelled: stop emitting. In-flight workers see the same flag,
      // leave their blocks empty, and the destructor drains them — the
      // truncated stream is reported by the caller's CheckCancel, never
      // consumed as a complete result.
      if (Cancelled()) return false;
      Slot& slot = slots_[next_emit_ % slots_.size()];
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&slot] { return slot.done; });
        out->Reset(num_columns_);
        std::swap(*out, slot.block);
        slot.done = false;
      }
      ++next_emit_;
      SubmitNext();  // refill the just-freed slot
      if (!out->empty()) return true;
    }
    return false;
  }

 private:
  struct Slot {
    RowBlock block;
    bool done = false;
  };

  bool Cancelled() const { return ctx_ != nullptr && ctx_->cancelled(); }

  void SubmitNext() {
    if (next_submit_ >= num_morsels_) return;
    const int64_t m = next_submit_++;
    Slot* slot = &slots_[m % slots_.size()];
    wg_.Add();
    ctx_->pool()->Submit([this, m, slot] {
      const int64_t begin = m * morsel_rows_;
      const int64_t end = std::min(total_rows_, begin + morsel_rows_);
      slot->block.Reset(num_columns_);
      if (!Cancelled()) fill_(begin, end, &slot->block);
      {
        std::lock_guard<std::mutex> lock(mu_);
        slot->done = true;
        cv_.notify_all();
      }
      wg_.Done();
    });
  }

  ExecContext* ctx_;
  int64_t total_rows_;
  int num_columns_;
  Fill fill_;
  int64_t morsel_rows_ = 1;
  int64_t num_morsels_ = 0;
  int64_t next_emit_ = 0;
  int64_t next_submit_ = 0;
  std::vector<Slot> slots_;  // empty = sequential mode
  std::mutex mu_;            // guards the slots' done flags
  std::condition_variable cv_;
  WaitGroup wg_;
};

}  // namespace internal

// --- ExecContext ---------------------------------------------------------

ExecContext::ExecContext(ExecOptions options) : options_(options) {
  if (options_.morsel_rows < 1) options_.morsel_rows = 1;
  const int threads = options_.ResolvedThreads();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

ExecContext::ExecContext(ExecOptions options, ThreadPool* shared_pool,
                         int slot_parallelism)
    : options_(options) {
  if (options_.morsel_rows < 1) options_.morsel_rows = 1;
  if (shared_pool != nullptr && slot_parallelism > 1 &&
      shared_pool->num_threads() > 1) {
    external_pool_ = shared_pool;
    slot_parallelism_ =
        std::min(slot_parallelism, shared_pool->num_threads());
  }
}

int64_t NumMorsels(const ExecContext* ctx, int64_t total_rows) {
  const int64_t rows = MorselRows(ctx);
  return (total_rows + rows - 1) / rows;
}

void ForEachMorsel(ExecContext* ctx, int64_t total_rows,
                   const MorselTask& task) {
  const int64_t morsel_rows = MorselRows(ctx);
  internal::MorselPipeline morsels(
      ctx, total_rows, /*num_columns=*/0,
      [&task, morsel_rows](int64_t begin, int64_t end, RowBlock*) {
        task(begin / morsel_rows, begin, end);
      });
  // The tasks leave their blocks empty, so one Next call paces the window
  // through every morsel (or stops at a cancel) and returns false.
  RowBlock none;
  morsels.Next(&none);
}

// --- SourceScanOp --------------------------------------------------------

SourceScanOp::SourceScanOp(const TableSource* source, int relation,
                           int num_columns, DnfPredicate filter,
                           ExecContext* ctx, std::vector<int> live_columns)
    : source_(source),
      relation_(relation),
      num_columns_(num_columns),
      filter_(filter),
      filter_is_true_(filter_.is_true()),
      ctx_(ctx),
      live_columns_(std::move(live_columns)) {}

SourceScanOp::~SourceScanOp() = default;

void SourceScanOp::Open() {
  morsels_ = std::make_unique<internal::MorselPipeline>(
      ctx_, static_cast<int64_t>(source_->RowCount(relation_)), num_columns_,
      [this](int64_t begin, int64_t end, RowBlock* out) {
        if (!live_columns_.empty()) out->SetLiveColumns(live_columns_);
        source_->FillBlockRange(relation_, begin, end, out);
        if (filter_is_true_) return;
        // Select the rows, then compact each live column in place through
        // the selection vector (ascending, so reads stay ahead of writes).
        thread_local SelVector sel;
        filter_.Select(*out, &sel);
        const int64_t kept = static_cast<int64_t>(sel.size());
        if (kept == out->num_rows()) return;
        for (int c = 0; c < out->num_columns(); ++c) {
          if (!out->IsLive(c)) continue;
          Value* col = out->MutableColumn(c);
          kernels::Gather(col, sel.data(), kept, col);
        }
        out->Truncate(kept);
      });
}

bool SourceScanOp::NextBatch(RowBlock* out) { return morsels_->Next(out); }

// --- JoinIndex -----------------------------------------------------------

JoinIndex::Layout JoinIndex::ChooseLayout(uint64_t key_distance,
                                          int64_t build_rows,
                                          int64_t scanned_rows) {
  const int64_t limit = std::max<int64_t>(
      8 * build_rows, std::min(scanned_rows, kScanRangeCap));
  // range = key_distance + 1 <= limit, without forming the (possibly
  // wrapping) range itself.
  if (key_distance < static_cast<uint64_t>(limit)) return Layout::kDense;
  return Layout::kHashed;
}

void JoinIndex::KeyMap::Init(int64_t rows) {
  uint64_t cap = 8;
  while (cap < static_cast<uint64_t>(rows) * 2) cap <<= 1;
  slots.assign(cap, {});
  mask = static_cast<uint32_t>(cap - 1);
}

JoinIndex::KeySlot* JoinIndex::KeyMap::FindOrInsert(Value key,
                                                    uint64_t hash) {
  uint32_t i = static_cast<uint32_t>(hash >> 32) & mask;
  while (slots[i].len != 0) {
    if (slots[i].key == key) return &slots[i];
    i = (i + 1) & mask;
  }
  slots[i].key = key;
  return &slots[i];
}

void JoinIndex::Build(const Value* keys, int64_t n, int64_t scanned_rows,
                      ExecContext* ctx) {
  HYDRA_CHECK_MSG(n < INT64_C(0xffffffff),
                  "build side too large for uint32 row ids");
  Value min = 0;
  Value max = 0;
  if (n > 0) {
    const auto [lo, hi] = std::minmax_element(keys, keys + n);
    min = *lo;
    max = *hi;
  }
  const uint64_t distance =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  // An empty build has no key range; dense is then a two-entry array.
  layout_ = n == 0 ? Layout::kDense : ChooseLayout(distance, n, scanned_rows);
  row_ids_.resize(static_cast<size_t>(n));
  if (layout_ == Layout::kDense) {
    g_join_index_dense.Inc();
    BuildDense(keys, n, min, n == 0 ? 0 : distance + 1);
  } else {
    g_join_index_hashed.Inc();
    BuildHashed(keys, n, ctx);
  }
}

void JoinIndex::BuildDense(const Value* keys, int64_t n, Value min,
                           uint64_t range) {
  partitions_.clear();
  min_ = min;
  range_ = range;
  // Count pass, inclusive prefix sum (each entry becomes its key's span
  // end), then a reverse-order placement pass that walks every entry down
  // to its span begin — the CSR fill of the hashed layout, with the slot
  // found by subtraction instead of a probe. The two trailing entries stay
  // at n: key k - min_ == range_ then reads the empty span [n, n).
  offsets_.assign(range + 2, 0);
  uint32_t* const off = offsets_.data();
  const uint64_t base = static_cast<uint64_t>(min);
  for (int64_t r = 0; r < n; ++r) ++off[static_cast<uint64_t>(keys[r]) - base];
  uint32_t end = 0;
  for (uint64_t k = 0; k < range; ++k) {
    end += off[k];
    off[k] = end;
  }
  off[range] = off[range + 1] = static_cast<uint32_t>(n);
  for (int64_t r = n - 1; r >= 0; --r) {
    const uint64_t k = static_cast<uint64_t>(keys[r]) - base;
    row_ids_[--off[k]] = static_cast<uint32_t>(r);
  }
}

void JoinIndex::BuildHashed(const Value* keys, int64_t n, ExecContext* ctx) {
  offsets_.clear();
  // One kernel pass hashes the whole key column; partition index and
  // bucket index both come from the precomputed hash (low bits pick the
  // partition, high bits the bucket — see KeyMap).
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  kernels::HashKeys(keys, n, hashes.data());

  // Hash-partitioned CSR build. Each partition runs a count pass (span
  // lengths per key), assigns span *end* offsets within its region of
  // row_ids_, then a reverse-order fill pass that places row ids back to
  // front — after which every span's begin has walked down to its start
  // and the ids sit in build-stream order. Two passes over a flat
  // open-addressing map cost less than a node allocation per distinct key,
  // and the flat layout probes cache-friendly.
  const bool parallel = ctx != nullptr && ctx->parallelism() > 1 && n >= 1024;
  const int num_parts = parallel ? std::min(ctx->parallelism(), 64) : 1;
  partitions_.assign(num_parts, {});
  // Builds partition `p`, whose rows fill row_ids_[base[p], base[p + 1]),
  // from forward/reverse walks of its row ids (both in build-stream order /
  // reversed build-stream order respectively). The walkers are generic
  // callables so every per-row call inlines — a std::function here costs an
  // indirect call per build row per pass. Pass 1 records each row's slot so
  // the fill pass never re-probes.
  std::vector<uint32_t> slot_of_row(static_cast<size_t>(n));
  std::vector<int64_t> base = {0, n};
  const auto build_partition =
      [&](int p, const auto& forward, const auto& reverse) {
        KeyMap& part = partitions_[p];
        part.Init(base[p + 1] - base[p]);
        KeySlot* const slots = part.slots.data();
        forward([&](uint32_t r) {
          KeySlot* slot = part.FindOrInsert(keys[r], hashes[r]);
          ++slot->len;
          slot_of_row[r] = static_cast<uint32_t>(slot - slots);
        });
        uint32_t offset = static_cast<uint32_t>(base[p]);
        for (KeySlot& slot : part.slots) {
          if (slot.len == 0) continue;
          offset += slot.len;
          slot.begin = offset;  // one past the span end; fill walks it down
        }
        reverse([&](uint32_t r) {
          row_ids_[--slots[slot_of_row[r]].begin] = r;
        });
      };
  if (num_parts == 1) {
    build_partition(
        0,
        [n](const auto& fn) {
          for (int64_t r = 0; r < n; ++r) fn(static_cast<uint32_t>(r));
        },
        [n](const auto& fn) {
          for (int64_t r = n - 1; r >= 0; --r) fn(static_cast<uint32_t>(r));
        });
  } else {
    // buckets[chunk][partition] -> row ids, so total work stays O(n):
    // pass 1 has each chunk bucket its own rows by partition; pass 2 has
    // each partition consume its buckets in chunk order, which is exactly
    // build-stream order.
    const int num_chunks = num_parts;
    std::vector<std::vector<std::vector<uint32_t>>> buckets(
        num_chunks, std::vector<std::vector<uint32_t>>(num_parts));
    const int64_t chunk_rows = (n + num_chunks - 1) / num_chunks;
    RunTasks(ctx, num_chunks, [&](int c) {
      auto& mine = buckets[c];
      const int64_t begin = c * chunk_rows;
      const int64_t end = std::min(n, begin + chunk_rows);
      for (int64_t r = begin; r < end; ++r) {
        mine[hashes[r] % static_cast<uint64_t>(num_parts)].push_back(
            static_cast<uint32_t>(r));
      }
    });
    base.assign(num_parts + 1, 0);
    for (int p = 0; p < num_parts; ++p) {
      base[p + 1] = base[p];
      for (int c = 0; c < num_chunks; ++c) {
        base[p + 1] += static_cast<int64_t>(buckets[c][p].size());
      }
    }
    RunTasks(ctx, num_parts, [&](int p) {
      build_partition(
          p,
          [&buckets, num_chunks, p](const auto& fn) {
            for (int c = 0; c < num_chunks; ++c) {
              for (const uint32_t r : buckets[c][p]) fn(r);
            }
          },
          [&buckets, num_chunks, p](const auto& fn) {
            for (int c = num_chunks - 1; c >= 0; --c) {
              const auto& ids = buckets[c][p];
              for (size_t i = ids.size(); i > 0; --i) fn(ids[i - 1]);
            }
          });
    });
  }
}

void JoinIndex::Probe(const Value* keys, int64_t n, Span* spans) const {
  if (layout_ == Layout::kDense) {
    // Out-of-range keys clamp onto the trailing empty span: no branch.
    const uint32_t* const off = offsets_.data();
    const uint64_t lo = static_cast<uint64_t>(min_);
    for (int64_t i = 0; i < n; ++i) {
      const uint64_t k = std::min(static_cast<uint64_t>(keys[i]) - lo, range_);
      spans[i] = {off[k], off[k + 1] - off[k]};
    }
    return;
  }
  // The whole key column is hashed in one kernel pass; the per-key loop
  // only partitions and probes. thread_local scratch: probes run
  // concurrently from morsel workers.
  thread_local std::vector<uint64_t> hashes;
  hashes.resize(static_cast<size_t>(n));
  kernels::HashKeys(keys, n, hashes.data());
  const uint64_t num_parts = partitions_.size();
  // The slot array exceeds cache for large build sides, so each probe's
  // first bucket touch is a miss; prefetching a fixed distance ahead hides
  // it behind the current key's work.
  constexpr int64_t kPrefetchAhead = 16;
  for (int64_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kPrefetchAhead < n) {
      const uint64_t ha = hashes[i + kPrefetchAhead];
      const KeyMap& pa = partitions_[num_parts == 1 ? 0 : ha % num_parts];
      __builtin_prefetch(&pa.slots[static_cast<uint32_t>(ha >> 32) & pa.mask]);
    }
#endif
    const uint64_t h = hashes[i];
    const KeySlot* slot =
        partitions_[num_parts == 1 ? 0 : h % num_parts].Find(keys[i], h);
    spans[i] = slot == nullptr ? Span{} : Span{slot->begin, slot->len};
  }
}

}  // namespace hydra
