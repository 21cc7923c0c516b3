// Morsel-driven scan layer of the execution engine. Section 6's `datagen`
// feature is realized by swapping the source: every scan reads any
// TableSource — a materialized Database, or a TupleGenerator pulling tuples
// straight out of the database summary — and the executor above it is
// oblivious to where the rows come from.
//
// Scans fill columnar RowBlock morsels (fixed-size rank ranges of
// FillBlockRange, until a source answers with run heads); the hot loops —
// predicate evaluation, join-key hashing, generator fills — run as
// per-column kernels (engine/kernels.h) over the blocks' contiguous column
// buffers, with filters communicating through selection vectors.
// ScanFiltered fills, filters and keeps a non-root table's columns morsel
// by morsel on the calling thread, as the executor's probe chain walks the
// root's morsels; JoinIndex is the key index that chain probes
// (docs/engine.md).

#ifndef HYDRA_ENGINE_OPERATORS_H_
#define HYDRA_ENGINE_OPERATORS_H_

#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "engine/kernels.h"
#include "engine/row_block.h"
#include "engine/table.h"
#include "query/predicate.h"

namespace hydra {

// Knobs of the engine, threaded from the workload drivers down to the
// morsel loops.
struct ExecOptions {
  // Worker threads of a query batch (Executor::ExecuteAll), which runs
  // whole queries on them; a lone query runs on its caller's thread. 0
  // (the default) = one per hardware thread; 1 = fully sequential (no
  // pool).
  int num_threads = 0;
  // Rows per morsel: the rank range one fill covers, and the unit at which
  // a query checks its cancel scope. A scan that asks for run heads and
  // gets them on its first fill reads the rest of its relation as one more
  // fill (ScanFiltered), so over a generator it makes at most two fills,
  // each of at most one row per summary run.
  int64_t morsel_rows = 4096;

  int ResolvedThreads() const {
    return num_threads == 0 ? ThreadPool::DefaultThreads()
                            : (num_threads < 1 ? 1 : num_threads);
  }
};

// Scans `relation` of `source` (`width` columns) morsel by morsel on the
// calling thread: fills each morsel_rows-sized rank range's `columns` and
// `filter`'s columns (FillBlockRange) and selects its rows through the
// compiled filter. `out` is Reset to columns.size() columns and receives
// the passing rows in rank order, at any morsel size: its column c holds
// the relation's column columns[c]. A morsel size below 1 counts as 1. A
// non-null `cancel` is checked before every fill: a tripped scope stops
// the scan before its next fill, and its status is returned with `out`
// partial.
//
// With `heads` the first fill asks for run heads (RowBlock::RequestHeads),
// so `filter` must not read the PK, and a kept PK column holds each head's
// first rank. A source that answers gets the rest of the relation as one
// more fill, and `out` holds the passing heads, weighted by their runs'
// lengths (RowBlock::weighted). A source that does not answer is read per
// row.
Status ScanFiltered(const TableSource& source, int relation, int width,
                    const DnfPredicate& filter,
                    const std::vector<int>& columns, int64_t morsel_rows,
                    bool heads, const CancelScope* cancel, RowBlock* out);

// Join-key index: maps a key to the contiguous span of build row ids holding
// it, in build order — the table behind the executor's probe chain. Three
// layouts share one probe interface; Build picks dense or hashed from the
// observed key range, and BuildRuns indexes run heads (docs/engine.md
// "Join index"):
//  * dense — an offsets array over [min, max]: key k's span is
//    row_ids[off[k - min], off[k - min + 1]). Taken when
//    max - min + 1 <= max(8 × build rows, min(scanned rows, kScanRangeCap)).
//    The first arm keeps the array no larger than the hashed layout's >= 2
//    16-byte slots per row. The second admits selective filters over key
//    ranks (PK and FK values are implicit ranks, the TableSource contract):
//    filling the array costs no more than the scan that fed the build, and
//    the cap holds it to 512 KiB however large the relation.
//  * hashed — CSR over flat open-addressing {key, begin, len} slots.
//  * runs — the heads of a PK scan's kept summary runs: key k's span is the
//    one head whose run [start, start + length) holds k, found by binary
//    search over the run starts, so any key of a run finds it.
// Every build counts in the metric registry as engine/join_index_dense,
// engine/join_index_hashed or engine/join_index_runs.
class JoinIndex {
 public:
  enum class Layout { kDense, kHashed, kRuns };

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
  // keys were scanned from, before any filter.
  void Build(const Value* keys, int64_t n, int64_t scanned_rows);
  // Indexes n disjoint runs of keys, in ascending order: head i holds keys
  // [starts[i], starts[i] + lengths[i]), and its span is row i.
  void BuildRuns(const Value* starts, const uint64_t* lengths, int64_t n);

  Layout layout() const { return layout_; }
  const uint32_t* row_ids() const { return row_ids_.data(); }

  // spans[i] = keys[i]'s span. Read-only, so concurrent probes are safe.
  void Probe(const Value* keys, int64_t n, Span* spans) const;

 private:
  // A hashed layout's slot: a key and its span; len == 0 marks an empty
  // slot (every present key spans >= 1 row).
  struct KeySlot {
    Value key = 0;
    uint32_t begin = 0;
    uint32_t len = 0;
  };

  void BuildDense(const Value* keys, int64_t n, Value min, uint64_t range);
  void BuildHashed(const Value* keys, int64_t n);
  // The slot holding `key`, or the empty slot where it would go: linear
  // probing from the bucket the high bits of its hash pick.
  uint32_t FindSlot(Value key, uint64_t hash) const {
    uint32_t i = static_cast<uint32_t>(hash >> 32) & mask_;
    while (slots_[i].len != 0 && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  Layout layout_ = Layout::kDense;
  // Dense: key k's span starts at offsets_[k - min_]; one trailing pair of
  // entries equal to the row count gives out-of-range keys an empty span.
  Value min_ = 0;
  uint64_t range_ = 0;
  std::vector<uint32_t> offsets_;
  // Hashed: open addressing over a power-of-two slot array; slot begins
  // index row_ids_.
  std::vector<KeySlot> slots_;
  uint32_t mask_ = 0;
  // Runs: head i's first key and key count.
  std::vector<Value> run_starts_;
  std::vector<uint64_t> run_lengths_;
  // Build row ids grouped by key, in build order within each key.
  std::vector<uint32_t> row_ids_;
};

}  // namespace hydra

#endif  // HYDRA_ENGINE_OPERATORS_H_
