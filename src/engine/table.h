// In-memory relational storage: flat row-major tables and a Database bundling
// one table per schema relation.
//
// The engine plays two roles from the paper: the *client's* database engine
// (executing the workload to annotate query plans with true cardinalities)
// and the *vendor's* engine under test (executing the same workload on
// regenerated data). Tables store Values contiguously (row-major) to keep
// scans cache-friendly.

#ifndef HYDRA_ENGINE_TABLE_H_
#define HYDRA_ENGINE_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/row_block.h"

namespace hydra {

class Table {
 public:
  explicit Table(int num_columns) : num_columns_(num_columns) {}

  int num_columns() const { return num_columns_; }
  uint64_t num_rows() const {
    return num_columns_ == 0 ? 0 : data_.size() / num_columns_;
  }

  void Reserve(uint64_t rows) { data_.reserve(rows * num_columns_); }
  // Grows (or shrinks) the table to exactly `rows` rows, zero-filling new
  // cells. Parallel materialization carves the resized storage into disjoint
  // shard ranges and fills them through MutableRowPtr.
  void ResizeRows(uint64_t rows) { data_.resize(rows * num_columns_); }

  void AppendRow(const Row& row);
  // Appends a row given as a raw pointer to num_columns() values.
  void AppendRaw(const Value* row);
  // Appends `num_rows` contiguous row-major rows in one insertion.
  void AppendBlock(const Value* rows, int64_t num_rows);

  Value At(uint64_t row, int col) const {
    return data_[row * num_columns_ + col];
  }
  // Pointer to the first value of `row`.
  const Value* RowPtr(uint64_t row) const {
    return data_.data() + row * num_columns_;
  }
  Value* MutableRowPtr(uint64_t row) {
    return data_.data() + row * num_columns_;
  }

  void GetRow(uint64_t row, Row* out) const;

  uint64_t ByteSize() const { return data_.size() * sizeof(Value); }

  const std::vector<Value>& data() const { return data_; }

 private:
  int num_columns_;
  std::vector<Value> data_;
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
  // reference is only valid during the call.
  virtual void Scan(int relation,
                    const std::function<void(const Row&)>& fn) const = 0;
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
  // point. The base implementation transposes through ScanRange; sources
  // with a cheaper columnar path (constant-run generators, contiguous
  // storage) override it. Same range semantics as ScanRange.
  virtual void FillBlockRange(int relation, int64_t begin, int64_t end,
                              RowBlock* out) const;
  // Builds the state that scans of `relation` share (a Database's columnar
  // mirror) on the calling thread. The executor calls it before it fans
  // scans out, so that the state is allocated by the caller rather than by
  // whichever pool worker scans first: memory freed into a worker's malloc
  // arena stays resident (docs/engine.md "Query batches"). A scan that
  // finds the state missing still builds it itself. The default does
  // nothing.
  virtual void PrepareScan(int /*relation*/) const {}
};

// A fully-materialized database: one Table per schema relation.
class Database : public TableSource {
 public:
  explicit Database(Schema schema);

  const Schema& schema() const { return schema_; }

  Table& table(int relation) { return tables_[relation]; }
  const Table& table(int relation) const { return tables_[relation]; }

  uint64_t TotalBytes() const;
  uint64_t TotalRows() const;

  // TableSource:
  uint64_t RowCount(int relation) const override;
  void Scan(int relation,
            const std::function<void(const Row&)>& fn) const override;
  void ScanRange(int relation, int64_t begin, int64_t end,
                 const std::function<void(const Row&)>& fn) const override;
  void FillBlockRange(int relation, int64_t begin, int64_t end,
                      RowBlock* out) const override;
  // Builds (or refreshes) the relation's columnar mirror.
  void PrepareScan(int relation) const override;

  // Verifies that every FK value appears as a PK of the target relation.
  Status CheckReferentialIntegrity() const;

 private:
  // Lazily built column-major mirror of the row-major tables, so repeated
  // batch scans (e.g. one per workload query) pay the transpose once
  // instead of per FillBlockRange call. Guarded by a reader/writer lock:
  // morsel workers scan under shared locks; a stale mirror (table grew
  // since the last build) is refreshed under the exclusive lock. Held by
  // pointer so Database stays movable.
  struct ColumnarMirror {
    std::shared_mutex mu;
    std::vector<RowBlock> blocks;
  };

  // Whether the relation's mirror matches its table. Requires columnar_->mu
  // held in either mode.
  bool MirrorCurrent(int relation) const;

  Schema schema_;
  std::vector<Table> tables_;
  mutable std::unique_ptr<ColumnarMirror> columnar_ =
      std::make_unique<ColumnarMirror>();
};

}  // namespace hydra

#endif  // HYDRA_ENGINE_TABLE_H_
