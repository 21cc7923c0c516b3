// Columnar batch storage: the unit of data flow from the engine's scans to
// their consumers.
//
// A RowBlock holds up to a few thousand rows in column-major vectors — one
// contiguous Value array per column — so the hot loops (predicate masks,
// join-key hashing, generator fills, projection) run as tight per-column
// kernels over sequential memory instead of striding through row-major rows
// (docs/engine.md). Logical row order is unchanged: row r is the r-th
// element of every column, and every consumer-visible stream remains
// byte-identical to the former row-major engine.
//
// Filters communicate through selection vectors (SelVector): a list of
// passing row indices produced by the predicate kernels and consumed by
// per-column gathers (kernels::Gather).
//
// Rows enter a block only column by column: a source's FillBlockRange, a
// resize followed by writes through MutableColumn, or an append of another
// block's rows. No column buffer is handed out, so every column always
// holds num_rows() values.
//
// A block also carries two facts between its consumer and its producer
// (docs/engine.md "What a scan reads"): the live columns, which the consumer
// will read and a producer must fill; and run heads, one row per summary
// run with the run's length as its weight, which a consumer may ask for
// instead of every row.

#ifndef HYDRA_ENGINE_ROW_BLOCK_H_
#define HYDRA_ENGINE_ROW_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "catalog/schema.h"

namespace hydra {

namespace internal {

// Allocator whose default-construct leaves trivial types uninitialized, so
// ResizeUninitialized's resize() doesn't spend a memory pass zeroing bytes
// the caller immediately overwrites (the dominant write on the generator-
// fill and join-output paths).
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible<U>::value) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    std::allocator_traits<std::allocator<T>>::construct(
        static_cast<std::allocator<T>&>(*this), ptr,
        std::forward<Args>(args)...);
  }
};

}  // namespace internal

// Flat value storage with uninitialized growth.
using ValueBuffer = std::vector<Value, internal::DefaultInitAllocator<Value>>;

// Selection vector: row indices (into one RowBlock) in ascending order.
using SelVector = std::vector<int32_t>;

// A batch of rows in column-major storage: one contiguous buffer per column.
class RowBlock {
 public:
  RowBlock() = default;
  explicit RowBlock(int num_columns) { Reset(num_columns); }

  // Re-types the block and drops its rows, weights and heads request;
  // every column is live again. Column buffers keep their capacity —
  // including buffers beyond the new width, which stay pooled for a later
  // wider Reset — so a block cycled through scans of varying widths
  // allocates each column once and reuses it from then on.
  void Reset(int num_columns) {
    if (static_cast<size_t>(num_columns) > cols_.size()) {
      cols_.resize(num_columns);
    }
    width_ = num_columns;
    for (int c = 0; c < width_; ++c) cols_[c].clear();
    num_rows_ = 0;
    live_.clear();
    weights_.clear();
    heads_requested_ = false;
  }

  int num_columns() const { return width_; }
  int64_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  // Grows (or shrinks) every column to exactly `rows` values without
  // initializing new cells; the caller fills them through MutableColumn.
  void ResizeUninitialized(int64_t rows) {
    for (int c = 0; c < width_; ++c) cols_[c].resize(rows);
    num_rows_ = rows;
    weights_.clear();
  }

  // Live columns: the columns the consumer will read. A producer fills at
  // least these (TableSource::FillBlockRange); every other column is sized
  // with the rest but holds unspecified values. `columns` lists indices
  // below num_columns(); the set lasts until the next Reset.
  void SetLiveColumns(const std::vector<int>& columns) {
    live_.assign(width_, 0);
    for (const int c : columns) live_[c] = 1;
  }
  bool IsLive(int c) const { return live_.empty() || live_[c] != 0; }

  // Run heads: a consumer that reads a summary run's PK at most at the
  // run's first rank may ask for one row per summary run instead of one
  // per rank; the request lasts until the next Reset. Within a run every
  // column but the PK holds one value. A producer that answers fills each
  // live column with the run's value, a live PK column with the run's
  // first rank, and records the run's row count as the row's weight, after
  // its last resize. A producer may ignore the request and fill every row.
  void RequestHeads() { heads_requested_ = true; }
  bool heads_requested() const { return heads_requested_; }
  // Whether every row is a run head: weights() then holds num_rows()
  // counts. Any resize, append or Reset drops the weights.
  bool weighted() const {
    return num_rows_ > 0 && weights_.size() == static_cast<size_t>(num_rows_);
  }
  const uint64_t* weights() const { return weights_.data(); }
  // Records the weight of the next row.
  void AppendWeight(uint64_t weight) { weights_.push_back(weight); }

  const Value* Column(int c) const { return cols_[c].data(); }
  Value* MutableColumn(int c) { return cols_[c].data(); }

  Value At(int64_t row, int col) const { return cols_[col][row]; }

  // Appends rows [begin, begin + n) of `other` (same width).
  void AppendRange(const RowBlock& other, int64_t begin, int64_t n) {
    const int64_t base = num_rows_;
    ResizeUninitialized(base + n);
    for (int c = 0; c < num_columns(); ++c) {
      const Value* src = other.cols_[c].data() + begin;
      std::copy(src, src + n, cols_[c].data() + base);
    }
  }

  // Writes row `row` into `dst` (num_columns() values, row-major).
  void CopyRowTo(int64_t row, Value* dst) const {
    for (int c = 0; c < num_columns(); ++c) dst[c] = cols_[c][row];
  }

 private:
  // cols_ may hold more buffers than width_ (see Reset); only the first
  // width_ are in use.
  std::vector<ValueBuffer> cols_;
  int width_ = 0;
  int64_t num_rows_ = 0;
  // Per column, 1 = live; empty = every column live.
  std::vector<uint8_t> live_;
  std::vector<uint64_t> weights_;
  bool heads_requested_ = false;
};

}  // namespace hydra

#endif  // HYDRA_ENGINE_ROW_BLOCK_H_
