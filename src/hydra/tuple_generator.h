// Tuple Generator (Section 6): generates relation tuples on demand from the
// database summary, replacing the scan operator of the engine under test
// (the paper's PostgreSQL `datagen` feature).
//
// The r-th tuple of relation R has PK value r; its remaining attributes come
// from the summary row whose cumulative NumTuples range covers r. Sequential
// scans walk the summary rows directly; random access binary-searches the
// prefix sums. Because PK values are implicit ranks, the PK space of every
// relation shards trivially into independently generatable, offset-
// addressable ranges — the Range entry points below start mid-stream via the
// same binary search, and the materialization paths fan shards out across a
// thread pool (docs/generation.md).

#ifndef HYDRA_HYDRA_TUPLE_GENERATOR_H_
#define HYDRA_HYDRA_TUPLE_GENERATOR_H_

#include <string>

#include "common/cancel.h"
#include "common/status.h"
#include "engine/table.h"
#include "hydra/summary.h"

namespace hydra {

// Options for the generation pipeline (MaterializeDatabase /
// MaterializeToDisk and range-partitioned scans built on them).
struct GenerationOptions {
  // Worker threads for sharded materialization. 0 = one per hardware
  // thread; 1 = sequential. The produced database / .tbl files are
  // byte-identical regardless of the setting — every shard owns a disjoint
  // rank range whose storage offset is fixed by the rank→offset map.
  int num_threads = 0;
  // Rows per generation block handed from ScanBlocksRange to the writer.
  int64_t block_rows = 512;
  // Rows per shard: the unit of parallel work. One relation is split into
  // ceil(rows / shard_rows) independently generated shards.
  int64_t shard_rows = 1 << 18;
};

class TupleGenerator : public TableSource {
 public:
  // `summary` must outlive the generator.
  explicit TupleGenerator(const DatabaseSummary& summary);

  // On-the-fly generation in PK order (no materialized storage touched).
  // All scan entry points are const and share no mutable state, so disjoint
  // ranges may be generated concurrently on one generator.
  void Scan(int relation,
            const std::function<void(const Row&)>& fn) const override;
  void ScanRange(int relation, int64_t begin, int64_t end,
                 const std::function<void(const Row&)>& fn) const override;
  uint64_t RowCount(int relation) const override;
  // Columnar generation of the rank range [begin, end), appended to `out`
  // (already Reset to the relation's width). All tuples of a summary run
  // share their attribute values, so each run is a per-column constant splat
  // plus an iota run for the PK — no row-major intermediate at all. Emits
  // exactly the ScanRange() rows on `out`'s live columns and splats no
  // other column. A fill into an empty block records its summary runs on
  // it, keyed on the PK.
  void FillBlockRange(int relation, int64_t begin, int64_t end,
                      RowBlock* out) const override;

  // Batched generation of the rank range [begin, end): invokes `fn` with
  // contiguous row-major blocks of up to `block_rows` rows (width = the
  // relation's attribute count), starting at an arbitrary rank via the
  // prefix_counts binary search. Block boundaries are an implementation
  // detail; concatenating the blocks over any split of [0, RowCount) yields
  // exactly the Scan() sequence. Used by the materialization paths to write
  // in blocks instead of per row.
  void ScanBlocksRange(
      int relation, int64_t begin, int64_t end, int64_t block_rows,
      const std::function<void(const Value*, int64_t)>& fn) const;
  // Generates the rank range [begin, end) row-major straight into `dst`,
  // which must hold (end - begin) * num_attributes Values. Single pass, no
  // callback or intermediate block.
  void FillRange(int relation, int64_t begin, int64_t end, Value* dst) const;
  // Columnar generation of the rank range [begin, end) into rows
  // [begin, end) of `table` (the relation's width, holding at least `end`
  // rows): FillBlockRange's per-column splats, written in place. Disjoint
  // ranges may fill one table concurrently (in-memory materialization
  // shards).
  void FillTableRange(int relation, int64_t begin, int64_t end,
                      Table* table) const;

  // Random access: fills `out` with the tuple whose PK is `r`.
  void GetTuple(int relation, int64_t r, Row* out) const;

  // Resumable streaming cursor over one relation's rank space — the serving
  // layer's unit of dynamic regeneration (docs/serve.md). FillBlock() emits
  // the next bounded run of rows and advances; position() is the rank of
  // the next unemitted row, so a cursor rebuilt over a freshly reloaded
  // copy of the same summary and Seek()ed to that rank continues the stream
  // byte-identically. Within a cursor's lifetime the covering summary row
  // is carried across FillBlock() calls, so only Seek() pays a binary
  // search. The generator must outlive the cursor.
  class Cursor {
   public:
    Cursor(const TupleGenerator& generator, int relation, int64_t begin = 0);

    // Rank of the next row FillBlock() would emit.
    int64_t position() const { return next_; }
    int64_t total_rows() const { return total_; }
    bool done() const { return next_ >= total_; }

    // Re-anchors the cursor at `rank` (0 <= rank <= total_rows()).
    void Seek(int64_t rank);

    // Appends up to `max_rows` rows to `out` (already Reset to the
    // relation's width) as per-column constant splats and PK iota runs, and
    // advances. Returns the number of rows written; 0 exactly at end of
    // stream. With a cancel scope set, a tripped scope stops the fill at
    // the next summary run boundary — a shorter (possibly empty) prefix,
    // position() still exact, so a resumed or retried fill continues
    // byte-identically.
    int64_t FillBlock(int64_t max_rows, RowBlock* out);

    // Failure domain: non-owning; the scope must stay alive across
    // FillBlock(). Null (the default) disables polling entirely.
    void set_cancel(const CancelScope* cancel) { cancel_ = cancel; }

   private:
    const TupleGenerator* generator_;
    int relation_;
    int64_t total_;
    int64_t next_ = 0;     // rank of the next row to emit
    int summary_row_ = 0;  // index of the summary row covering next_
    const CancelScope* cancel_ = nullptr;
  };

 private:
  // Writes the non-key values of summary row `summary_row` into `out`
  // (which must already be sized) and sets the PK to `pk`.
  void FillRow(int relation, int summary_row, int64_t pk, Row* out) const;

  // The one copy of the resume-at-rank arithmetic: walks the summary rows
  // covering [begin, end) and invokes fn(summary_row, pk_begin, pk_end) for
  // each non-empty stretch, in rank order. Zero-count summary rows are
  // skipped. Both Scan*Range variants layer row/block emission on top.
  void ForEachSummaryRun(
      int relation, int64_t begin, int64_t end,
      const std::function<void(int, int64_t, int64_t)>& fn) const;
  // The columnar fill behind FillBlockRange and FillTableRange: writes
  // attribute a's values for ranks [begin, end) to column(a)[0, end - begin)
  // for every a with live(a), and calls run_end(stop - begin) after each
  // summary run [.., stop).
  template <typename ColumnFn, typename LiveFn, typename RunFn>
  void FillColumns(int relation, int64_t begin, int64_t end, ColumnFn column,
                   LiveFn live, RunFn run_end) const;

  const DatabaseSummary& summary_;
  // Per-relation invariants hoisted out of the per-tuple paths.
  std::vector<int> pk_attr_;
  std::vector<std::vector<int>> uncovered_attrs_;
};

// Materializes the summary into an in-memory database (the "static
// generation" option of Section 5). With options.num_threads != 1 the
// relations' rank ranges are filled concurrently into preallocated storage.
StatusOr<Database> MaterializeDatabase(const DatabaseSummary& summary,
                                       const GenerationOptions& options = {});

// Streams every relation to disk as `<dir>/<relation>.tbl` in the binary
// format of storage/disk_table.h. Returns total bytes written. With
// options.num_threads != 1 each relation's shards are generated and written
// concurrently at their fixed byte offsets into a single .tbl file.
StatusOr<uint64_t> MaterializeToDisk(const DatabaseSummary& summary,
                                     const std::string& dir,
                                     const GenerationOptions& options = {});

}  // namespace hydra

#endif  // HYDRA_HYDRA_TUPLE_GENERATOR_H_
