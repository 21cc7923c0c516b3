// In-memory relational storage: column-major tables and a Database bundling
// one table per schema relation.
//
// The engine plays two roles from the paper: the *client's* database engine
// (executing the workload to annotate query plans with true cardinalities)
// and the *vendor's* engine under test (executing the same workload on
// regenerated data). A Table keeps one contiguous Value buffer per column,
// the RowBlock layout the engine's scans and kernels read, so a batch scan
// copies column slices straight out of storage (docs/engine.md).

#ifndef HYDRA_ENGINE_TABLE_H_
#define HYDRA_ENGINE_TABLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/row_block.h"

namespace hydra {

// A relation's rows, column-major: row r is at offset r of every column.
class Table {
 public:
  explicit Table(int num_columns) : cols_(num_columns) {}

  int num_columns() const { return static_cast<int>(cols_.size()); }
  uint64_t num_rows() const { return num_rows_; }

  // Reserves every column for `rows` rows.
  void Reserve(uint64_t rows);
  // Grows (or shrinks) the table to exactly `rows` rows without
  // initializing new cells; the caller fills them through MutableColumn.
  // Parallel materialization carves the resized columns into disjoint shard
  // ranges.
  void ResizeRows(uint64_t rows);

  void AppendRow(const Row& row);

  Value At(uint64_t row, int col) const { return cols_[col][row]; }
  void GetRow(uint64_t row, Row* out) const;

  // Column `c`: num_rows() values, row r at offset r.
  const Value* Column(int c) const { return cols_[c].data(); }
  Value* MutableColumn(int c) { return cols_[c].data(); }

  uint64_t ByteSize() const {
    return num_rows_ * cols_.size() * sizeof(Value);
  }

  // Same width, row count and values.
  bool operator==(const Table& other) const;
  bool operator!=(const Table& other) const { return !(*this == other); }

 private:
  std::vector<ValueBuffer> cols_;
  uint64_t num_rows_ = 0;
};

// Abstract supplier of relation rows. The materialized Database implements it
// by scanning storage; the Hydra tuple generator implements it by generating
// rows on demand from the database summary (the paper's `datagen` scan
// replacement).
class TableSource {
 public:
  virtual ~TableSource() = default;

  virtual uint64_t RowCount(int relation) const = 0;
  // Invokes `fn` once per row of `relation`, in primary-key order. The Row
  // reference is only valid during the call. Defined once, as ScanRange
  // over [0, RowCount); virtual only so forwarding sources can wrap it.
  virtual void Scan(int relation,
                    const std::function<void(const Row&)>& fn) const;
  // Invokes `fn` once per row of the half-open rank range [begin, end), in
  // primary-key order (requires 0 <= begin <= end <= RowCount(relation)).
  // PK values are implicit ranks, so ranges partition every relation into
  // independently scannable shards: concatenating ScanRange over any split
  // of [0, RowCount) yields exactly the Scan() sequence, and disjoint ranges
  // may be scanned concurrently.
  virtual void ScanRange(int relation, int64_t begin, int64_t end,
                         const std::function<void(const Row&)>& fn) const = 0;
  // Appends the rank range [begin, end) to `out` (already Reset to the
  // relation's width) in columnar form — the engine's batch scan entry
  // point and its only read call. Fills at least `out`'s live columns
  // (RowBlock::SetLiveColumns); the other columns grow with them and hold
  // unspecified values. A source may answer `out`'s request for run heads
  // (RowBlock::RequestHeads) with one weighted row per summary run. Same
  // range semantics as ScanRange.
  virtual void FillBlockRange(int relation, int64_t begin, int64_t end,
                              RowBlock* out) const = 0;
};

// A fully-materialized database: one Table per schema relation.
class Database : public TableSource {
 public:
  explicit Database(Schema schema);
  // Move-only, so that a copy of a (possibly multi-GiB) database is never
  // made by accident.
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Schema& schema() const { return schema_; }

  Table& table(int relation) { return tables_[relation]; }
  const Table& table(int relation) const { return tables_[relation]; }

  uint64_t TotalBytes() const;
  uint64_t TotalRows() const;

  // TableSource:
  uint64_t RowCount(int relation) const override;
  void ScanRange(int relation, int64_t begin, int64_t end,
                 const std::function<void(const Row&)>& fn) const override;
  // Copies each live column's [begin, end) slice; safe to call
  // concurrently with other scans, but not with writes to the table.
  void FillBlockRange(int relation, int64_t begin, int64_t end,
                      RowBlock* out) const override;

  // Verifies that every FK value appears as a PK of the target relation.
  Status CheckReferentialIntegrity() const;

 private:
  Schema schema_;
  std::vector<Table> tables_;
};

}  // namespace hydra

#endif  // HYDRA_ENGINE_TABLE_H_
