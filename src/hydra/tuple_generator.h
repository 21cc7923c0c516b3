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
  // Rows per generation block handed from ScanBlocksRange to the writer:
  // one pwrite per block, under the table's lock. 16,384 rows of a
  // 13-column relation are 1.7 MB per worker. On a 3.95M-row
  // materialization, 512- and 65,536-row blocks took ~0.1 and ~0.04 CPU-s
  // more (docs/generation.md "Parallel materialization").
  int64_t block_rows = 1 << 14;
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
  void ScanRange(int relation, int64_t begin, int64_t end,
                 const std::function<void(const Row&)>& fn) const override;
  uint64_t RowCount(int relation) const override;
  // Columnar generation of the rank range [begin, end), appended to `out`
  // (already Reset to the relation's width). All tuples of a summary run
  // share their attribute values, so each run is a per-column constant splat
  // plus an iota run for the PK — no row-major intermediate at all. Emits
  // exactly the ScanRange() rows on `out`'s live columns and splats no
  // other column. A fill into an empty block that asks for run heads
  // (RowBlock::RequestHeads) writes one row per summary run of the range
  // instead: the run's values, its first rank as the PK, and its length as
  // the row's weight, so the fill costs the same at any volume.
  void FillBlockRange(int relation, int64_t begin, int64_t end,
                      RowBlock* out) const override;

  // Batched generation of the rank range [begin, end): fills each slice of
  // up to `block_rows` ranks into one reused row-major buffer with
  // FillRange and invokes `fn` with it (width = the relation's attribute
  // count). The buffer is allocated once per call and never zero-filled,
  // since FillRange writes every value of it. Block boundaries are an
  // implementation detail; concatenating the blocks over any split of
  // [0, RowCount) yields exactly the Scan() sequence. Used by the disk
  // materialization path to write in blocks instead of per row.
  void ScanBlocksRange(
      int relation, int64_t begin, int64_t end, int64_t block_rows,
      const std::function<void(const Value*, int64_t)>& fn) const;
  // Generates the rank range [begin, end) row-major straight into `dst`,
  // which must hold (end - begin) * num_attributes Values, and writes every
  // one of them and nothing past them. Each summary run is written as
  // copies of an L1-sized tile of its template row, with the PK column of
  // each copy rewritten, not tuple by tuple.
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

 private:
  // Writes the non-key values of summary row `summary_row` into `out`
  // (which must already be sized) and sets the PK to `pk`.
  void FillRow(int relation, int summary_row, int64_t pk, Row* out) const;

  // Fails unless 0 <= begin <= end <= RowCount(relation).
  void CheckRange(int relation, int64_t begin, int64_t end) const;
  // The one copy of the resume-at-rank arithmetic: walks the summary rows
  // covering [begin, end) and invokes fn(summary_row, pk_begin, pk_end) for
  // each non-empty stretch, in rank order. Zero-count summary rows are
  // skipped. ScanRange, FillRange and FillColumns layer their emission on
  // top.
  void ForEachSummaryRun(
      int relation, int64_t begin, int64_t end,
      const std::function<void(int, int64_t, int64_t)>& fn) const;
  // The columnar fill behind FillBlockRange and FillTableRange: writes
  // attribute a's values for ranks [begin, end) to column(a)[0, end - begin)
  // for every a with live(a), and calls run(pk, stop) after each summary
  // run [pk, stop). With `heads`, writes run k's first rank alone, to
  // column(a)[k].
  template <typename ColumnFn, typename LiveFn, typename RunFn>
  void FillColumns(int relation, int64_t begin, int64_t end, bool heads,
                   ColumnFn column, LiveFn live, RunFn run) const;

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
// format of storage/disk_table.h. Returns total bytes written. Every table
// is reserved at its final size before any row is generated, so a full disk
// fails the call up front. With options.num_threads != 1 each relation's
// shards are generated concurrently and written at their fixed byte offsets
// into a single .tbl file, one block at a time per table.
StatusOr<uint64_t> MaterializeToDisk(const DatabaseSummary& summary,
                                     const std::string& dir,
                                     const GenerationOptions& options = {});

}  // namespace hydra

#endif  // HYDRA_HYDRA_TUPLE_GENERATOR_H_
