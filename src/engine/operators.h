// Morsel-driven scan layer of the execution engine. Section 6's `datagen`
// feature is realized by swapping the source: every scan reads any
// TableSource — a materialized Database, or a TupleGenerator pulling tuples
// straight out of the database summary — and the executor above it is
// oblivious to where the rows come from.
//
// Scans fill columnar RowBlock morsels (fixed-size rank ranges of
// FillBlockRange); the hot loops — predicate evaluation, join-key hashing,
// generator fills — run as per-column kernels (engine/kernels.h) over the
// blocks' contiguous column buffers, with filters communicating through
// selection vectors. ScanFiltered fills, filters and keeps a non-root
// table's columns morsel by morsel on the calling thread; ForEachMorsel
// runs the root's morsels through ParallelFor (common/thread_pool.h) on an
// ExecContext's pool, each writing only its own slot; JoinIndex is the key
// index the executor's probe chain probes (docs/engine.md).

#ifndef HYDRA_ENGINE_OPERATORS_H_
#define HYDRA_ENGINE_OPERATORS_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "engine/kernels.h"
#include "engine/row_block.h"
#include "engine/table.h"
#include "query/predicate.h"

namespace hydra {

// Knobs of the parallel engine, threaded from the workload drivers down to
// the morsel sources.
struct ExecOptions {
  // Worker threads: a lone query runs its root morsels on them, a query
  // batch (Executor::ExecuteAll) runs whole queries on them, and a large
  // hashed join-index build runs its partitions on them. 0 (the default) =
  // one per hardware thread; 1 = fully sequential (no pool).
  int num_threads = 0;
  // Rows per morsel: the rank range one fill covers, and the unit of the
  // root's parallel work.
  int64_t morsel_rows = 4096;

  int ResolvedThreads() const {
    return num_threads == 0 ? ThreadPool::DefaultThreads()
                            : (num_threads < 1 ? 1 : num_threads);
  }
};

// Shared execution state for one executor (reused across the queries of a
// workload): the options plus the pool morsel work fans out on. Work given
// no context — or a 1-thread context — runs fully sequentially.
//
// Two ownership modes:
//  * owning (the classic constructor): the context spawns its own pool of
//    options.ResolvedThreads() workers;
//  * external slot: the context borrows a caller-owned shared pool and caps
//    its fan-out at `slot_parallelism` — the serving layer's "scheduler
//    slot", letting many concurrent pipelines share one pool with bounded
//    per-pipeline width. Tasks run through a slot must never block on
//    other pool tasks (the engine's ParallelFor tasks never do), so slots
//    cannot deadlock a shared pool.
class ExecContext {
 public:
  explicit ExecContext(ExecOptions options);
  // External-slot mode: non-owning. With slot_parallelism <= 1 (or a null
  // pool) the context is fully sequential and never touches `shared_pool`.
  ExecContext(ExecOptions options, ThreadPool* shared_pool,
              int slot_parallelism);

  const ExecOptions& options() const { return options_; }
  int64_t morsel_rows() const { return options_.morsel_rows; }
  // Workers available for fan-out; 1 means sequential.
  int parallelism() const {
    if (external_pool_ != nullptr) return slot_parallelism_;
    return pool_ ? pool_->num_threads() : 1;
  }
  // Null when sequential.
  ThreadPool* pool() {
    return external_pool_ != nullptr ? external_pool_ : pool_.get();
  }

  // Failure domain (docs/robustness.md): a non-null scope makes scans stop
  // claiming new morsels once it trips — a pipeline unwinds within one
  // morsel per worker of the signal. The caller sets it around a request
  // and must keep the scope alive while set; never owned.
  void set_cancel(const CancelScope* cancel) { cancel_ = cancel; }
  const CancelScope* cancel() const { return cancel_; }
  // OK, or why execution must stop (kCancelled / kDeadlineExceeded).
  Status CheckCancel() const {
    return cancel_ != nullptr ? cancel_->Check() : Status::OK();
  }

 private:
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  ThreadPool* external_pool_ = nullptr;  // non-owning slot mode
  int slot_parallelism_ = 1;
  const CancelScope* cancel_ = nullptr;
};

// The number of morsel_rows-sized rank ranges [0, total_rows) splits into
// under `ctx` (ExecOptions' default morsel size without one): the morsels
// ForEachMorsel and ScanFiltered run.
int64_t NumMorsels(const ExecContext* ctx, int64_t total_rows);

// Runs task(morsel, begin, end) once per morsel of [0, total_rows) through
// ParallelFor on the context's pool, at most parallelism() at a time.
// Morsel m covers [m × morsel_rows, ...), and m runs over
// [0, NumMorsels(ctx, total_rows)). A tripped cancel scope stops the
// claiming, so at most one morsel per worker starts after it (the caller
// reports that through CheckCancel). Tasks run concurrently and must write
// only state private to their morsel; all have finished when this returns.
using MorselTask = std::function<void(int64_t, int64_t, int64_t)>;
void ForEachMorsel(ExecContext* ctx, int64_t total_rows,
                   const MorselTask& task);

// Scans `relation` of `source` (`width` columns) morsel by morsel on the
// calling thread: fills each morsel's `columns` and `filter`'s columns
// (FillBlockRange) and selects its rows through the compiled filter. `out`
// is Reset to columns.size() columns and receives the passing rows in rank
// order, at any morsel size: its column c holds the relation's column
// columns[c]. A tripped cancel scope on `ctx` stops the scan before its
// next morsel and is returned, with `out` partial. A null `ctx` means the
// default morsel size and no cancel scope.
Status ScanFiltered(const TableSource& source, int relation, int width,
                    const DnfPredicate& filter,
                    const std::vector<int>& columns, const ExecContext* ctx,
                    RowBlock* out);

// Join-key index: maps a key to the contiguous span of build row ids holding
// it, in build order — the table behind the executor's probe chain. Two
// layouts share one probe interface; Build picks one from the observed key
// range (docs/engine.md "Join index"):
//  * dense — an offsets array over [min, max]: key k's span is
//    row_ids[off[k - min], off[k - min + 1]). Taken when
//    max - min + 1 <= max(8 × build rows, min(scanned rows, kScanRangeCap)).
//    The first arm keeps the array no larger than the hashed layout's >= 2
//    16-byte slots per row. The second admits selective filters over key
//    ranks (PK and FK values are implicit ranks, the TableSource contract):
//    filling the array costs no more than the scan that fed the build, and
//    the cap holds it to 512 KiB however large the relation.
//  * hashed — CSR over flat open-addressing {key, begin, len} slots,
//    hash-partitioned across the pool (ParallelFor) for large builds.
// Every build counts in the metric registry as engine/join_index_dense or
// engine/join_index_hashed.
class JoinIndex {
 public:
  enum class Layout { kDense, kHashed };

  // A key's build rows: row_ids()[begin, begin + len); len == 0 = no match.
  // No member initializers: Span{} is the empty span, and a default-
  // initialized span buffer is left unwritten for Probe to fill.
  struct Span {
    uint32_t begin;
    uint32_t len;
  };

  // The largest key range the scanned-rows arm of the layout rule admits.
  static constexpr int64_t kScanRangeCap = int64_t{1} << 17;

  // The layout rule: dense iff the key range max - min + 1 (passed as the
  // unsigned distance max - min, so INT64_MIN..INT64_MAX cannot overflow)
  // is at most max(8 × build_rows, min(scanned_rows, kScanRangeCap)).
  static Layout ChooseLayout(uint64_t key_distance, int64_t build_rows,
                             int64_t scanned_rows);

  // Indexes keys[0, n). `scanned_rows` is the row count of the relation the
  // keys were scanned from, before any filter. A parallel `ctx` partitions
  // a large hashed build across its pool.
  void Build(const Value* keys, int64_t n, int64_t scanned_rows,
             ExecContext* ctx = nullptr);

  Layout layout() const { return layout_; }
  const uint32_t* row_ids() const { return row_ids_.data(); }

  // spans[i] = keys[i]'s span. Read-only, so concurrent probes are safe.
  void Probe(const Value* keys, int64_t n, Span* spans) const;

 private:
  // Open-addressing key -> span map with power-of-two capacity and linear
  // probing; len == 0 marks an empty slot (every present key spans >= 1
  // row). The bucket comes from the *high* hash bits — the partition index
  // consumed the low bits — which keeps probe chains short.
  struct KeySlot {
    Value key = 0;
    uint32_t begin = 0;
    uint32_t len = 0;
  };
  struct KeyMap {
    std::vector<KeySlot> slots;
    uint32_t mask = 0;

    void Init(int64_t distinct_upper_bound);
    KeySlot* FindOrInsert(Value key, uint64_t hash);
    const KeySlot* Find(Value key, uint64_t hash) const {
      uint32_t i = static_cast<uint32_t>(hash >> 32) & mask;
      while (slots[i].len != 0) {
        if (slots[i].key == key) return &slots[i];
        i = (i + 1) & mask;
      }
      return nullptr;
    }
  };

  void BuildDense(const Value* keys, int64_t n, Value min, uint64_t range);
  void BuildHashed(const Value* keys, int64_t n, ExecContext* ctx);

  Layout layout_ = Layout::kDense;
  // Dense: key k's span starts at offsets_[k - min_]; one trailing pair of
  // entries equal to the row count gives out-of-range keys an empty span.
  Value min_ = 0;
  uint64_t range_ = 0;
  std::vector<uint32_t> offsets_;
  // Hashed: a key's slot lives in exactly one partition; slot begins index
  // the shared row_ids_ array.
  std::vector<KeyMap> partitions_;
  // Build row ids grouped by key, in build order within each key.
  std::vector<uint32_t> row_ids_;
};

}  // namespace hydra

#endif  // HYDRA_ENGINE_OPERATORS_H_
