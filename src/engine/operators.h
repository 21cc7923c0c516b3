// Batch-vectorized, morsel-driven execution engine. Section 6's `datagen`
// feature is realized by swapping the leaf: TableScanOp reads materialized
// storage, GeneratorScanOp pulls tuples straight out of the database summary,
// SourceScanOp scans any TableSource — every operator above is oblivious to
// where the rows come from.
//
// Operators exchange columnar RowBlock batches (NextBatch); the hot loops —
// predicate evaluation, join-key hashing, generator fills, projection — run
// as per-column kernels (engine/kernels.h) over the blocks' contiguous
// column buffers, with filters communicating through selection vectors.
// The row-at-a-time Next() shim on the base class exists only for root
// consumers and tests. Leaves fan morsels (fixed-size rank ranges of
// ScanRange/FillBlockRange) out over an ExecContext's thread pool and emit
// the filled blocks in rank order, so the concatenated row stream — and
// therefore every cardinality, aggregate value, and root row order — is
// byte-identical at any thread count and at either kernel dispatch path
// (docs/engine.md).

#ifndef HYDRA_ENGINE_OPERATORS_H_
#define HYDRA_ENGINE_OPERATORS_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "engine/kernels.h"
#include "engine/row_block.h"
#include "engine/table.h"
#include "hydra/tuple_generator.h"
#include "query/predicate.h"

namespace hydra {

// Knobs of the parallel engine, threaded from the workload drivers down to
// the morsel sources.
struct ExecOptions {
  // Worker threads for morsel fan-out. 0 = one per hardware thread;
  // 1 = fully sequential (no pool, no handoff machinery).
  int num_threads = 1;
  // Rows per morsel: the unit of leaf parallel work and the target batch
  // size flowing between operators.
  int64_t morsel_rows = 4096;

  int ResolvedThreads() const {
    return num_threads == 0 ? ThreadPool::DefaultThreads()
                            : (num_threads < 1 ? 1 : num_threads);
  }
};

// Shared execution state for one operator tree (reused across the queries of
// a workload): the options plus the pool morsel work fans out on. Operators
// given no context — or a 1-thread context — run fully sequentially.
//
// Two ownership modes:
//  * owning (the classic constructor): the context spawns its own pool of
//    options.ResolvedThreads() workers;
//  * external slot: the context borrows a caller-owned shared pool and caps
//    its fan-out at `slot_parallelism` — the serving layer's "scheduler
//    slot", letting many concurrent pipelines share one pool with bounded
//    per-pipeline width. Tasks submitted through a slot must never block on
//    other pool tasks (the engine's leaf tasks never do), so slots cannot
//    deadlock a shared pool.
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

  // Failure domain (docs/robustness.md): a non-null scope makes morsel
  // sources stop planning new morsels once it trips — a pipeline unwinds
  // within one morsel of the signal. The caller sets it around a request
  // and must keep the scope alive while set; never owned.
  void set_cancel(const CancelScope* cancel) { cancel_ = cancel; }
  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }
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
// ForEachMorsel and the scan leaves run.
int64_t NumMorsels(const ExecContext* ctx, int64_t total_rows);

// Runs task(morsel, begin, end) once per morsel of [0, total_rows) through
// the leaves' dispatch: at most 2 × parallelism morsels in flight on the
// context's pool, and a cancel check before each one, so a tripped scope
// stops it within one morsel (the caller reports that through
// CheckCancel). Morsel m covers [m × morsel_rows, ...), and m runs over
// [0, NumMorsels(ctx, total_rows)). Tasks run concurrently and must write
// only state private to their morsel; all have finished when this returns.
using MorselTask = std::function<void(int64_t, int64_t, int64_t)>;
void ForEachMorsel(ExecContext* ctx, int64_t total_rows,
                   const MorselTask& task);

namespace internal {
class MorselPipeline;
class OrderedBatchMapper;
}  // namespace internal

// Batch iterator: Open() once, then NextBatch() until it returns false.
class Operator {
 public:
  virtual ~Operator();

  // Prepares for a (re-)scan and resets the row shim.
  void Open();

  // Fills `out` with the next non-empty batch and returns true, or returns
  // false at end of stream. The callee Resets `out`; batch boundaries are an
  // implementation detail — only the concatenated row stream is contractual,
  // and it is identical at any thread count.
  virtual bool NextBatch(RowBlock* out) = 0;

  virtual int num_columns() const = 0;

  // Row-at-a-time shim over NextBatch, kept for root consumers and tests.
  bool Next(Row* out);

 protected:
  virtual void OpenImpl() = 0;

 private:
  RowBlock shim_;
  int64_t shim_pos_ = 0;
  bool shim_eof_ = false;
};

// Leaf: morsel-driven scan over any TableSource (a materialized Database or
// a TupleGenerator), with an optional pushed-down filter evaluated inside
// the morsel workers — the executor's scan+filter unit of parallelism. The
// workers fill their morsel columnar (FillBlockRange), run the compiled
// predicate over the columns, and compact in place through the selection
// vector.
class SourceScanOp : public Operator {
 public:
  SourceScanOp(const TableSource* source, int relation, int num_columns,
               DnfPredicate filter = DnfPredicate::True(),
               ExecContext* ctx = nullptr);
  ~SourceScanOp() override;

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override { return num_columns_; }

 protected:
  void OpenImpl() override;

 private:
  const TableSource* source_;
  int relation_;
  int num_columns_;
  kernels::BlockPredicate filter_;
  bool filter_is_true_;
  ExecContext* ctx_;
  std::unique_ptr<internal::MorselPipeline> morsels_;
};

// Leaf: scans an in-memory row-major table (morsel workers transpose their
// rank range into the block's columns).
class TableScanOp : public Operator {
 public:
  explicit TableScanOp(const Table* table, ExecContext* ctx = nullptr);
  ~TableScanOp() override;

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override { return table_->num_columns(); }

 protected:
  void OpenImpl() override;

 private:
  const Table* table_;
  ExecContext* ctx_;
  std::unique_ptr<internal::MorselPipeline> morsels_;
};

// Leaf: generates tuples on demand from a database summary (dynamic
// regeneration; no storage touched). Morsel workers generate disjoint rank
// ranges concurrently via FillBlockRange — per-column constant splats and
// PK iota runs.
class GeneratorScanOp : public Operator {
 public:
  GeneratorScanOp(const TupleGenerator* generator, int relation,
                  int num_columns, ExecContext* ctx = nullptr);
  ~GeneratorScanOp() override;

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override { return num_columns_; }

 protected:
  void OpenImpl() override;

 private:
  const TupleGenerator* generator_;
  int relation_;
  int num_columns_;
  ExecContext* ctx_;
  std::unique_ptr<internal::MorselPipeline> morsels_;
};

// σ: keeps rows satisfying a DNF predicate. The predicate is compiled to
// column kernels once at construction; each batch is masked column-wise and
// gathered through the selection vector. The input block and the selection
// vector are owned by the operator and keep their capacity across
// NextBatch calls.
class FilterOp : public Operator {
 public:
  FilterOp(std::unique_ptr<Operator> child, DnfPredicate predicate)
      : child_(std::move(child)), predicate_(predicate) {}

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override { return child_->num_columns(); }

 protected:
  void OpenImpl() override { child_->Open(); }

 private:
  std::unique_ptr<Operator> child_;
  kernels::BlockPredicate predicate_;
  RowBlock in_;
  SelVector sel_;
};

// π: emits a subset/permutation of the child's columns. Columnar layout
// makes this a column *move*: each projected column's buffer is swapped out
// of the owned input block (the output's previous buffer swaps back in, so
// both blocks reuse their capacity); only duplicated source columns copy.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<int> columns)
      : child_(std::move(child)), columns_(std::move(columns)) {}

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override {
    return static_cast<int>(columns_.size());
  }

 protected:
  void OpenImpl() override { child_->Open(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<int> columns_;
  RowBlock in_;
};

// Join-key index: maps a key to the contiguous span of build row ids holding
// it, in build order — the table behind HashJoinOp and the executor's probe
// chain. Two layouts share one probe interface; Build picks one from the
// observed key range (docs/engine.md "Join index"):
//  * dense — an offsets array over [min, max]: key k's span is
//    row_ids[off[k - min], off[k - min + 1]). Taken when
//    max - min + 1 <= max(8 × build rows, min(scanned rows, kScanRangeCap)).
//    The first arm keeps the array no larger than the hashed layout's >= 2
//    16-byte slots per row. The second admits selective filters over key
//    ranks (PK and FK values are implicit ranks, the TableSource contract):
//    filling the array costs no more than the scan that fed the build, and
//    the cap holds it to 512 KiB however large the relation.
//  * hashed — CSR over flat open-addressing {key, begin, len} slots,
//    hash-partitioned across the pool for large builds.
// Every build counts in the metric registry as engine/join_index_dense or
// engine/join_index_hashed.
class JoinIndex {
 public:
  enum class Layout { kDense, kHashed };

  // A key's build rows: row_ids()[begin, begin + len); len == 0 = no match.
  struct Span {
    uint32_t begin = 0;
    uint32_t len = 0;
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

// ⋈: hash join; the build side is materialized and indexed (JoinIndex) at
// Open(). Output rows are probe columns followed by build columns. Handles
// duplicate keys on both sides. With a parallel context a hashed build is
// partitioned across the pool and probe batches are joined concurrently
// against the then-read-only index, emitted in probe order.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> probe, int probe_col,
             std::unique_ptr<Operator> build, int build_col,
             ExecContext* ctx = nullptr);
  ~HashJoinOp() override;

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override {
    return probe_->num_columns() + build_->num_columns();
  }

 protected:
  void OpenImpl() override;

 private:
  // Joins one probe batch against the (read-only) index. Safe to call
  // concurrently from morsel workers.
  void JoinBatch(const RowBlock& in, RowBlock* out) const;

  std::unique_ptr<Operator> probe_;
  std::unique_ptr<Operator> build_;
  int probe_col_;
  int build_col_;
  ExecContext* ctx_;
  // All build rows, columnar, in build-stream order.
  RowBlock build_rows_;
  JoinIndex index_;
  std::unique_ptr<internal::OrderedBatchMapper> probe_mapper_;
  RowBlock probe_in_;
};

enum class AggregateKind { kCount, kSum, kMin, kMax };

// γ: grouped aggregation; fully materializes at Open(). Output row layout:
// group columns then one value per aggregate, in group-key order. With a
// parallel context, child batches are folded into per-worker partial states
// whose merge is commutative, so the (sorted) result is thread-count
// independent.
class HashAggregateOp : public Operator {
 public:
  struct Aggregate {
    AggregateKind kind;
    int column = -1;  // ignored for kCount
  };

  HashAggregateOp(std::unique_ptr<Operator> child, std::vector<int> group_by,
                  std::vector<Aggregate> aggregates,
                  ExecContext* ctx = nullptr)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)),
        ctx_(ctx) {}

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override {
    return static_cast<int>(group_by_.size() + aggregates_.size());
  }

 protected:
  void OpenImpl() override;

 private:
  // One group's running aggregate values, ordered like aggregates_.
  using GroupMap = std::map<Row, std::vector<int64_t>>;
  void AccumulateBatch(const RowBlock& in, GroupMap* groups) const;

  std::unique_ptr<Operator> child_;
  std::vector<int> group_by_;
  std::vector<Aggregate> aggregates_;
  ExecContext* ctx_;
  RowBlock results_;
  int64_t next_result_ = 0;
};

// Stops after `limit` rows.
class LimitOp : public Operator {
 public:
  LimitOp(std::unique_ptr<Operator> child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  bool NextBatch(RowBlock* out) override;
  int num_columns() const override { return child_->num_columns(); }

 protected:
  void OpenImpl() override {
    child_->Open();
    emitted_ = 0;
  }

 private:
  std::unique_ptr<Operator> child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

// Drains `op` and returns the number of rows produced.
uint64_t CountRows(Operator* op);

}  // namespace hydra

#endif  // HYDRA_ENGINE_OPERATORS_H_
