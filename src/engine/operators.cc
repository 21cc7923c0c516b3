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
  // so an early-terminated scan (e.g. under a LimitOp) must drain.
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

// Pulls batches from `child` on the consumer thread, maps up to 2*threads of
// them concurrently through `fn` on the pool, and yields the mapped outputs
// in input order — the parallel probe machinery of HashJoinOp.
class OrderedBatchMapper {
 public:
  using MapFn = std::function<void(const RowBlock&, RowBlock*)>;

  OrderedBatchMapper(ExecContext* ctx, Operator* child, MapFn fn)
      : ctx_(ctx),
        child_(child),
        fn_(std::move(fn)),
        slots_(2 * ctx->parallelism()) {}

  ~OrderedBatchMapper() { wg_.Wait(); }

  bool Next(RowBlock* out) {
    for (;;) {
      // Keep the window full: pull child batches into free slots and hand
      // them to the pool. Pulling happens only on this (consumer) thread.
      while (!child_eof_ &&
             next_fill_ - next_emit_ < static_cast<int64_t>(slots_.size())) {
        Slot* slot = &slots_[next_fill_ % slots_.size()];
        if (!child_->NextBatch(&slot->in)) {
          child_eof_ = true;
          break;
        }
        ++next_fill_;
        wg_.Add();
        ctx_->pool()->Submit([this, slot] {
          fn_(slot->in, &slot->out);
          {
            std::lock_guard<std::mutex> lock(mu_);
            slot->done = true;
            cv_.notify_all();
          }
          wg_.Done();
        });
      }
      if (next_emit_ == next_fill_) return false;  // drained at child EOF
      Slot& slot = slots_[next_emit_ % slots_.size()];
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&slot] { return slot.done; });
        std::swap(*out, slot.out);
        slot.done = false;
      }
      ++next_emit_;
      if (!out->empty()) return true;
    }
  }

 private:
  struct Slot {
    RowBlock in;
    RowBlock out;
    bool done = false;
  };

  ExecContext* ctx_;
  Operator* child_;
  MapFn fn_;
  std::vector<Slot> slots_;
  bool child_eof_ = false;
  int64_t next_fill_ = 0;
  int64_t next_emit_ = 0;
  std::mutex mu_;  // guards the slots' done flags
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

// --- Operator base -------------------------------------------------------

Operator::~Operator() = default;

void Operator::Open() {
  shim_.Reset(0);
  shim_pos_ = 0;
  shim_eof_ = false;
  OpenImpl();
}

bool Operator::Next(Row* out) {
  while (shim_pos_ >= shim_.num_rows()) {
    if (shim_eof_ || !NextBatch(&shim_)) {
      shim_eof_ = true;
      return false;
    }
    shim_pos_ = 0;
  }
  out->resize(shim_.num_columns());
  shim_.CopyRowTo(shim_pos_++, out->data());
  return true;
}

// --- Leaves --------------------------------------------------------------

SourceScanOp::SourceScanOp(const TableSource* source, int relation,
                           int num_columns, DnfPredicate filter,
                           ExecContext* ctx)
    : source_(source),
      relation_(relation),
      num_columns_(num_columns),
      filter_(filter),
      filter_is_true_(filter_.is_true()),
      ctx_(ctx) {}

SourceScanOp::~SourceScanOp() = default;

void SourceScanOp::OpenImpl() {
  morsels_ = std::make_unique<internal::MorselPipeline>(
      ctx_, static_cast<int64_t>(source_->RowCount(relation_)), num_columns_,
      [this](int64_t begin, int64_t end, RowBlock* out) {
        source_->FillBlockRange(relation_, begin, end, out);
        if (filter_is_true_) return;
        // Mask the columns, then compact each one in place through the
        // selection vector (ascending, so reads stay ahead of writes).
        thread_local SelVector sel;
        filter_.Select(*out, &sel);
        const int64_t kept = static_cast<int64_t>(sel.size());
        if (kept == out->num_rows()) return;
        for (int c = 0; c < out->num_columns(); ++c) {
          Value* col = out->MutableColumn(c);
          kernels::Gather(col, sel.data(), kept, col);
        }
        out->Truncate(kept);
      });
}

bool SourceScanOp::NextBatch(RowBlock* out) { return morsels_->Next(out); }

TableScanOp::TableScanOp(const Table* table, ExecContext* ctx)
    : table_(table), ctx_(ctx) {}

TableScanOp::~TableScanOp() = default;

void TableScanOp::OpenImpl() {
  morsels_ = std::make_unique<internal::MorselPipeline>(
      ctx_, static_cast<int64_t>(table_->num_rows()), table_->num_columns(),
      [this](int64_t begin, int64_t end, RowBlock* out) {
        out->AppendRowMajor(table_->RowPtr(begin), end - begin);
      });
}

bool TableScanOp::NextBatch(RowBlock* out) { return morsels_->Next(out); }

GeneratorScanOp::GeneratorScanOp(const TupleGenerator* generator, int relation,
                                 int num_columns, ExecContext* ctx)
    : generator_(generator),
      relation_(relation),
      num_columns_(num_columns),
      ctx_(ctx) {}

GeneratorScanOp::~GeneratorScanOp() = default;

void GeneratorScanOp::OpenImpl() {
  morsels_ = std::make_unique<internal::MorselPipeline>(
      ctx_, static_cast<int64_t>(generator_->RowCount(relation_)),
      num_columns_, [this](int64_t begin, int64_t end, RowBlock* out) {
        generator_->FillBlockRange(relation_, begin, end, out);
      });
}

bool GeneratorScanOp::NextBatch(RowBlock* out) { return morsels_->Next(out); }

// --- Filter / Project / Limit --------------------------------------------

bool FilterOp::NextBatch(RowBlock* out) {
  out->Reset(child_->num_columns());
  while (child_->NextBatch(&in_)) {
    predicate_.Select(in_, &sel_);
    const int64_t kept = static_cast<int64_t>(sel_.size());
    if (kept == 0) continue;
    out->ResizeUninitialized(kept);
    for (int c = 0; c < in_.num_columns(); ++c) {
      kernels::Gather(in_.Column(c), sel_.data(), kept, out->MutableColumn(c));
    }
    return true;
  }
  return false;
}

bool ProjectOp::NextBatch(RowBlock* out) {
  const int num_cols = static_cast<int>(columns_.size());
  out->Reset(num_cols);
  if (!child_->NextBatch(&in_)) return false;
  const int64_t rows = in_.num_rows();
  // Column moves: swap each projected buffer out of the owned input block;
  // the output's previous buffer swaps back in, so both blocks keep their
  // capacity. A source column projected twice copies on re-use.
  std::vector<int> moved_to(in_.num_columns(), -1);
  for (int c = 0; c < num_cols; ++c) {
    const int src = columns_[c];
    if (moved_to[src] < 0) {
      std::swap(out->MutableColumnBuffer(c), in_.MutableColumnBuffer(src));
      moved_to[src] = c;
    } else {
      const ValueBuffer& first = out->MutableColumnBuffer(moved_to[src]);
      out->MutableColumnBuffer(c).assign(first.begin(), first.end());
    }
  }
  out->SetNumRows(rows);
  return true;
}

bool LimitOp::NextBatch(RowBlock* out) {
  if (emitted_ >= limit_) return false;
  if (!child_->NextBatch(out)) return false;
  const uint64_t remaining = limit_ - emitted_;
  if (static_cast<uint64_t>(out->num_rows()) > remaining) {
    out->Truncate(static_cast<int64_t>(remaining));
  }
  emitted_ += out->num_rows();
  return true;
}

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

// --- HashJoinOp ----------------------------------------------------------

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> probe, int probe_col,
                       std::unique_ptr<Operator> build, int build_col,
                       ExecContext* ctx)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_col_(probe_col),
      build_col_(build_col),
      ctx_(ctx) {}

HashJoinOp::~HashJoinOp() = default;

void HashJoinOp::OpenImpl() {
  probe_mapper_.reset();
  build_->Open();
  build_rows_.Reset(build_->num_columns());
  RowBlock b;
  while (build_->NextBatch(&b)) build_rows_.AppendBlock(b);
  // The build stream is all the operator sees of its relation, so it also
  // stands in for the scanned row count of the layout rule.
  const int64_t n = build_rows_.num_rows();
  index_.Build(build_rows_.Column(build_col_), n, n, ctx_);

  probe_->Open();
  if (ctx_ != nullptr && ctx_->parallelism() > 1) {
    // The index is read-only from here on: probe batches may be joined
    // concurrently and are emitted in probe order.
    probe_mapper_ = std::make_unique<internal::OrderedBatchMapper>(
        ctx_, probe_.get(),
        [this](const RowBlock& in, RowBlock* out) { JoinBatch(in, out); });
  }
}

void HashJoinOp::JoinBatch(const RowBlock& in, RowBlock* out) const {
  out->Reset(num_columns());
  const int probe_cols = in.num_columns();
  const int64_t probe_n = in.num_rows();
  // Pass 1: resolve each probe row's span so the output can be sized in
  // one allocation (per-output-row growth dominated the join otherwise).
  // thread_local scratch: probe batches are joined concurrently by the
  // OrderedBatchMapper's workers.
  thread_local std::vector<JoinIndex::Span> spans;
  spans.resize(static_cast<size_t>(probe_n));
  index_.Probe(in.Column(probe_col_), probe_n, spans.data());
  int64_t total_rows = 0;
  for (const JoinIndex::Span& s : spans) total_rows += s.len;
  // Flatten the match spans into per-output-row source indices once, so
  // the per-column fill is a straight-line gather rather than a nested
  // match-span walk repeated for every column.
  thread_local std::vector<int32_t> probe_idx;
  thread_local std::vector<uint32_t> build_idx;
  probe_idx.resize(static_cast<size_t>(total_rows));
  build_idx.resize(static_cast<size_t>(total_rows));
  const uint32_t* const row_ids = index_.row_ids();
  int64_t pos = 0;
  for (int64_t r = 0; r < probe_n; ++r) {
    for (uint32_t i = 0; i < spans[r].len; ++i) {
      probe_idx[pos] = static_cast<int32_t>(r);
      build_idx[pos] = row_ids[spans[r].begin + i];
      ++pos;
    }
  }
  // Pass 2: fill column by column — probe values splat across their match
  // runs, build values gather through the span row ids.
  out->ResizeUninitialized(total_rows);
  for (int c = 0; c < probe_cols; ++c) {
    kernels::Gather(in.Column(c), probe_idx.data(), total_rows,
                    out->MutableColumn(c));
  }
  for (int c = 0; c < build_rows_.num_columns(); ++c) {
    const Value* src = build_rows_.Column(c);
    Value* dst = out->MutableColumn(probe_cols + c);
    for (int64_t i = 0; i < total_rows; ++i) dst[i] = src[build_idx[i]];
  }
}

bool HashJoinOp::NextBatch(RowBlock* out) {
  if (probe_mapper_ != nullptr) return probe_mapper_->Next(out);
  while (probe_->NextBatch(&probe_in_)) {
    JoinBatch(probe_in_, out);
    if (!out->empty()) return true;
  }
  return false;
}

// --- HashAggregateOp -----------------------------------------------------

void HashAggregateOp::AccumulateBatch(const RowBlock& in,
                                      GroupMap* groups) const {
  // Hoist the column base pointers; the per-row loop then indexes straight
  // into the contiguous buffers.
  thread_local std::vector<const Value*> group_cols;
  thread_local std::vector<const Value*> agg_cols;
  group_cols.clear();
  for (int c : group_by_) group_cols.push_back(in.Column(c));
  agg_cols.clear();
  for (const Aggregate& agg : aggregates_) {
    agg_cols.push_back(agg.column >= 0 ? in.Column(agg.column) : nullptr);
  }
  Row key;
  for (int64_t r = 0; r < in.num_rows(); ++r) {
    key.clear();
    for (const Value* col : group_cols) key.push_back(col[r]);
    auto [it, inserted] = groups->try_emplace(key);
    if (inserted) {
      it->second.reserve(aggregates_.size());
      for (const Aggregate& agg : aggregates_) {
        switch (agg.kind) {
          case AggregateKind::kCount:
          case AggregateKind::kSum:
            it->second.push_back(0);
            break;
          case AggregateKind::kMin:
            it->second.push_back(INT64_MAX);
            break;
          case AggregateKind::kMax:
            it->second.push_back(INT64_MIN);
            break;
        }
      }
    }
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      int64_t& state = it->second[a];
      switch (aggregates_[a].kind) {
        case AggregateKind::kCount:
          ++state;
          break;
        case AggregateKind::kSum:
          state += agg_cols[a][r];
          break;
        case AggregateKind::kMin:
          state = std::min(state, agg_cols[a][r]);
          break;
        case AggregateKind::kMax:
          state = std::max(state, agg_cols[a][r]);
          break;
      }
    }
  }
}

void HashAggregateOp::OpenImpl() {
  child_->Open();
  next_result_ = 0;

  GroupMap merged;
  const int num_workers = ctx_ == nullptr ? 1 : ctx_->parallelism();
  if (num_workers <= 1) {
    RowBlock in;
    while (child_->NextBatch(&in)) AccumulateBatch(in, &merged);
  } else {
    // Child batches fold into per-worker partial states; dispatch is
    // bounded to 2 batches per worker. count/sum/min/max over int64 are
    // commutative and associative, so neither the batch-to-slot assignment
    // nor execution order can change the merged result.
    struct Partial {
      std::mutex mu;
      GroupMap groups;
    };
    std::vector<std::unique_ptr<Partial>> partials;
    partials.reserve(num_workers);
    for (int k = 0; k < num_workers; ++k) {
      partials.push_back(std::make_unique<Partial>());
    }
    WaitGroup wg;
    const int window = 2 * num_workers;
    int64_t batch_index = 0;
    RowBlock in;
    while (child_->NextBatch(&in)) {
      auto block = std::make_shared<RowBlock>(std::move(in));
      Partial* slot = partials[batch_index++ % num_workers].get();
      wg.WaitUntilBelow(window);
      wg.Add();
      ctx_->pool()->Submit([this, block, slot, &wg] {
        {
          std::lock_guard<std::mutex> part_lock(slot->mu);
          AccumulateBatch(*block, &slot->groups);
        }
        wg.Done();
      });
    }
    wg.Wait();
    for (auto& partial : partials) {
      for (auto& [key, values] : partial->groups) {
        auto [it, inserted] = merged.try_emplace(key, std::move(values));
        if (inserted) continue;
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          switch (aggregates_[a].kind) {
            case AggregateKind::kCount:
            case AggregateKind::kSum:
              it->second[a] += values[a];
              break;
            case AggregateKind::kMin:
              it->second[a] = std::min(it->second[a], values[a]);
              break;
            case AggregateKind::kMax:
              it->second[a] = std::max(it->second[a], values[a]);
              break;
          }
        }
      }
    }
  }

  results_.Reset(num_columns());
  results_.ResizeUninitialized(static_cast<int64_t>(merged.size()));
  const int num_groups = static_cast<int>(group_by_.size());
  int64_t r = 0;
  for (const auto& [key, values] : merged) {
    for (int c = 0; c < num_groups; ++c) {
      results_.MutableColumn(c)[r] = key[c];
    }
    for (size_t a = 0; a < values.size(); ++a) {
      results_.MutableColumn(num_groups + static_cast<int>(a))[r] = values[a];
    }
    ++r;
  }
}

bool HashAggregateOp::NextBatch(RowBlock* out) {
  const int64_t total = results_.num_rows();
  if (next_result_ >= total) return false;
  const int64_t batch_rows = std::max<int64_t>(
      1, ctx_ == nullptr ? ExecOptions{}.morsel_rows : ctx_->morsel_rows());
  const int64_t chunk = std::min(total - next_result_, batch_rows);
  out->Reset(num_columns());
  out->AppendRange(results_, next_result_, chunk);
  next_result_ += chunk;
  return true;
}

// --- CountRows -----------------------------------------------------------

uint64_t CountRows(Operator* op) {
  op->Open();
  RowBlock block;
  uint64_t count = 0;
  while (op->NextBatch(&block)) count += block.num_rows();
  return count;
}

}  // namespace hydra
