#include "storage/disk_table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/failpoint.h"
#include "common/logging.h"

namespace hydra {

// Chaos hooks over the writer's failure surface: file creation, shard
// positioning, the data-path writes (disk full), and the close/finalize
// step. tests/storage_test.cc drives each; the materialization fleet's
// one-failed-shard-aborts-all contract is tested through them.
HYDRA_FAILPOINT_DEFINE(g_fp_table_open, "disk_table/open");
HYDRA_FAILPOINT_DEFINE(g_fp_table_open_shard, "disk_table/open_shard");
HYDRA_FAILPOINT_DEFINE(g_fp_table_append, "disk_table/append");
HYDRA_FAILPOINT_DEFINE(g_fp_table_close, "disk_table/close");

namespace {

constexpr uint64_t kMagic = 0x48594452'54424C31ULL;  // "HYDRTBL1"
constexpr size_t kBufferRows = 1 << 16;

struct Header {
  uint64_t magic;
  uint64_t num_columns;
  uint64_t num_rows;
};

// Readers reject wider headers: a zero-row table would otherwise size its
// per-column storage from an unchecked count. Far above any schema's width.
constexpr uint64_t kMaxColumns = 1 << 16;

// Size of the open file `f` in bytes, or -1; leaves the position at the end.
int64_t FileEnd(std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0) return -1;
  // ftell returns a long (32-bit on LLP64) — multi-GiB tables need the
  // 64-bit variants, same as OpenShard's seek.
#ifdef _WIN32
  return ::_ftelli64(f);
#else
  return static_cast<int64_t>(::ftello(f));
#endif
}

// Reads the header of the table file `f` (at `path`) and leaves `f` at the
// first row. Rejects a header whose magic is wrong, whose column count is 0
// or above kMaxColumns, or whose rows would not fit in the file, before any
// reader sizes storage from it. Data bytes beyond the rows are allowed: an
// in-progress table's header says 0 rows while its shards are written.
Status ReadHeader(std::FILE* f, const std::string& path, Header* h) {
  if (std::fread(h, sizeof(*h), 1, f) != 1 || h->magic != kMagic ||
      h->num_columns == 0 || h->num_columns > kMaxColumns) {
    return Status::IoError("bad header in " + path);
  }
  const int64_t size = FileEnd(f);
  if (size < static_cast<int64_t>(sizeof(Header)) ||
      std::fseek(f, sizeof(Header), SEEK_SET) != 0) {
    return Status::IoError("cannot size " + path);
  }
  // rows * columns * sizeof(Value) <= data bytes, without overflow.
  const uint64_t data_bytes = static_cast<uint64_t>(size) - sizeof(Header);
  if (h->num_rows > data_bytes / sizeof(Value) / h->num_columns) {
    return Status::IoError("bad header in " + path + ": rows overrun the file");
  }
  return Status::OK();
}

// Calls fn(first, n) for consecutive tiles of at most 256 of `rows` rows.
// The row-major <-> column-major transposes revisit a tile once per
// column, so a tile stays cache-resident across the passes.
template <typename Fn>
void ForEachTile(uint64_t rows, Fn fn) {
  constexpr uint64_t kTileRows = 256;
  for (uint64_t t = 0; t < rows; t += kTileRows) {
    fn(t, std::min(kTileRows, rows - t));
  }
}

#ifndef _WIN32
// OpenShard seeks with fseeko; an ILP32 build without 64-bit file offsets
// would wrap multi-GiB shard offsets.
static_assert(sizeof(off_t) == sizeof(int64_t),
              "need 64-bit file offsets; build with -D_FILE_OFFSET_BITS=64");
#endif

}  // namespace

DiskTableWriter::DiskTableWriter(std::string path, int num_columns)
    : path_(std::move(path)), num_columns_(num_columns) {}

DiskTableWriter::~DiskTableWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status DiskTableWriter::Open() {
  HYDRA_FAILPOINT(g_fp_table_open);
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IoError("cannot open " + path_ + " for writing");
  }
  Header h{kMagic, static_cast<uint64_t>(num_columns_), 0};
  if (std::fwrite(&h, sizeof(h), 1, file_) != 1) {
    return Status::IoError("cannot write header to " + path_);
  }
  return Status::OK();
}

Status DiskTableWriter::OpenShard(int64_t begin_row) {
  HYDRA_FAILPOINT(g_fp_table_open_shard);
  HYDRA_CHECK_MSG(begin_row >= 0, "negative shard start " << begin_row);
  // "r+b": the file (and its header) must already exist, and writes land at
  // the seek position instead of truncating. Writing past the current end is
  // fine — shards may finish out of order and the gap is filled when the
  // preceding shards land.
  file_ = std::fopen(path_.c_str(), "r+b");
  if (file_ == nullptr) {
    return Status::IoError("cannot open " + path_ + " for shard writing");
  }
  // Guard against stale/foreign files at the reused <relation>.tbl path: a
  // width mismatch would put every computed row offset at the wrong byte.
  Header h;
  if (std::fread(&h, sizeof(h), 1, file_) != 1 || h.magic != kMagic ||
      h.num_columns != static_cast<uint64_t>(num_columns_)) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IoError("bad header in " + path_ + " for shard writing");
  }
  const int64_t offset =
      static_cast<int64_t>(sizeof(Header)) +
      begin_row * num_columns_ * static_cast<int64_t>(sizeof(Value));
  // Plain fseek takes a long, which is 32-bit on LLP64/ILP32 platforms —
  // shard offsets of multi-GiB relations would wrap.
#ifdef _WIN32
  const int seek_rc = ::_fseeki64(file_, offset, SEEK_SET);
#else
  const int seek_rc = ::fseeko(file_, static_cast<off_t>(offset), SEEK_SET);
#endif
  if (seek_rc != 0) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IoError("seek to shard offset failed on " + path_);
  }
  shard_mode_ = true;
  return Status::OK();
}

Status DiskTableWriter::Append(const Row& row) {
  HYDRA_DCHECK(static_cast<int>(row.size()) == num_columns_);
  // Reserved on first buffered append: shard writers fed by AppendBlock
  // never touch the buffer, and one writer is built per shard.
  if (buffer_.capacity() == 0) buffer_.reserve(kBufferRows * num_columns_);
  buffer_.insert(buffer_.end(), row.begin(), row.end());
  ++rows_written_;
  if (buffer_.size() >= kBufferRows * static_cast<size_t>(num_columns_)) {
    return FlushBuffer();
  }
  return Status::OK();
}

Status DiskTableWriter::AppendBlock(const Value* rows, int64_t num_rows) {
  // A block skips the per-row buffering: drain whatever is buffered, then
  // hand the caller's contiguous rows straight to the (already buffered)
  // stdio stream in one write.
  HYDRA_RETURN_IF_ERROR(FlushBuffer());
  HYDRA_FAILPOINT(g_fp_table_append);
  const size_t count = static_cast<size_t>(num_rows) * num_columns_;
  if (count > 0 && std::fwrite(rows, sizeof(Value), count, file_) != count) {
    return Status::IoError("short write to " + path_);
  }
  rows_written_ += num_rows;
  return Status::OK();
}

Status DiskTableWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  HYDRA_FAILPOINT(g_fp_table_append);
  if (std::fwrite(buffer_.data(), sizeof(Value), buffer_.size(), file_) !=
      buffer_.size()) {
    return Status::IoError("short write to " + path_);
  }
  buffer_.clear();
  return Status::OK();
}

Status DiskTableWriter::Close() {
  if (file_ == nullptr) {
    return Status::IoError(path_ + " is not open");
  }
  Status status = FlushBuffer();
  // Injected inline (not via the early-return macro) so the fclose below
  // still runs: a chaos-injected close failure must not leak the handle.
  if (status.ok() && g_fp_table_close.armed()) status = g_fp_table_close.Fire();
  // Patch the row count into the header — unless this is a shard, whose
  // file already carries the finalized header from PreallocateDiskTable.
  if (status.ok() && !shard_mode_) {
    if (std::fseek(file_, 0, SEEK_SET) != 0) {
      status = Status::IoError("seek failed on " + path_);
    } else {
      Header h{kMagic, static_cast<uint64_t>(num_columns_), rows_written_};
      if (std::fwrite(&h, sizeof(h), 1, file_) != 1) {
        status = Status::IoError("cannot rewrite header of " + path_);
      }
    }
  }
  // Close unconditionally: an early return on a failed header rewrite would
  // leave file_ set and lean on the destructor for the fclose.
  if (std::fclose(file_) != 0 && status.ok()) {
    status = Status::IoError("close failed on " + path_);
  }
  file_ = nullptr;
  return status;
}

Status PreallocateDiskTable(const std::string& path, int num_columns) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  Header h{kMagic, static_cast<uint64_t>(num_columns), 0};
  const bool wrote = std::fwrite(&h, sizeof(h), 1, f) == 1;
  if (std::fclose(f) != 0 || !wrote) {
    return Status::IoError("cannot write header to " + path);
  }
  return Status::OK();
}

Status FinalizeDiskTable(const std::string& path, int num_columns,
                         uint64_t num_rows) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for finalizing");
  }
  // Same stale/foreign-file guard as OpenShard: never stamp a valid header
  // onto bytes that are not a matching in-progress table.
  Header existing;
  if (std::fread(&existing, sizeof(existing), 1, f) != 1 ||
      existing.magic != kMagic ||
      existing.num_columns != static_cast<uint64_t>(num_columns)) {
    std::fclose(f);
    return Status::IoError("bad header in " + path + " for finalizing");
  }
  Header h{kMagic, static_cast<uint64_t>(num_columns), num_rows};
  const bool wrote = std::fseek(f, 0, SEEK_SET) == 0 &&
                     std::fwrite(&h, sizeof(h), 1, f) == 1;
  if (std::fclose(f) != 0 || !wrote) {
    return Status::IoError("cannot rewrite header of " + path);
  }
  return Status::OK();
}

StatusOr<uint64_t> ScanDiskTable(const std::string& path,
                                 const std::function<void(const Row&)>& fn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  Header h;
  const Status header = ReadHeader(f, path, &h);
  if (!header.ok()) {
    std::fclose(f);
    return header;
  }
  const int cols = static_cast<int>(h.num_columns);
  std::vector<Value> buffer(std::min<uint64_t>(h.num_rows, kBufferRows) *
                            cols);
  Row row(cols);
  uint64_t remaining = h.num_rows;
  while (remaining > 0) {
    const uint64_t batch = std::min<uint64_t>(remaining, kBufferRows);
    if (std::fread(buffer.data(), sizeof(Value), batch * cols, f) !=
        batch * cols) {
      std::fclose(f);
      return Status::IoError("short read from " + path);
    }
    for (uint64_t r = 0; r < batch; ++r) {
      row.assign(buffer.begin() + r * cols, buffer.begin() + (r + 1) * cols);
      fn(row);
    }
    remaining -= batch;
  }
  std::fclose(f);
  return h.num_rows;
}

StatusOr<Table> ReadDiskTable(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  Header h;
  const Status header = ReadHeader(f, path, &h);
  if (!header.ok()) {
    std::fclose(f);
    return header;
  }
  const int cols = static_cast<int>(h.num_columns);
  Table table(cols);
  table.ResizeRows(h.num_rows);
  std::vector<Value> buffer(std::min<uint64_t>(h.num_rows, kBufferRows) *
                            cols);
  for (uint64_t begin = 0; begin < h.num_rows; begin += kBufferRows) {
    const uint64_t batch = std::min<uint64_t>(h.num_rows - begin, kBufferRows);
    if (std::fread(buffer.data(), sizeof(Value), batch * cols, f) !=
        batch * cols) {
      std::fclose(f);
      return Status::IoError("short read from " + path);
    }
    ForEachTile(batch, [&](uint64_t t, uint64_t n) {
      for (int c = 0; c < cols; ++c) {
        Value* dst = table.MutableColumn(c) + begin + t;
        const Value* src = buffer.data() + t * cols + c;
        for (uint64_t r = 0; r < n; ++r) dst[r] = src[r * cols];
      }
    });
  }
  std::fclose(f);
  return table;
}

Status WriteDiskTable(const Table& table, const std::string& path) {
  DiskTableWriter writer(path, table.num_columns());
  HYDRA_RETURN_IF_ERROR(writer.Open());
  const int cols = table.num_columns();
  const uint64_t rows = table.num_rows();
  std::vector<Value> buffer(std::min<uint64_t>(rows, kBufferRows) * cols);
  for (uint64_t begin = 0; begin < rows; begin += kBufferRows) {
    const uint64_t batch = std::min<uint64_t>(rows - begin, kBufferRows);
    ForEachTile(batch, [&](uint64_t t, uint64_t n) {
      for (int c = 0; c < cols; ++c) {
        const Value* src = table.Column(c) + begin + t;
        Value* dst = buffer.data() + t * cols + c;
        for (uint64_t r = 0; r < n; ++r) dst[r * cols] = src[r];
      }
    });
    HYDRA_RETURN_IF_ERROR(
        writer.AppendBlock(buffer.data(), static_cast<int64_t>(batch)));
  }
  return writer.Close();
}

StatusOr<uint64_t> DiskTableBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const int64_t size = FileEnd(f);
  std::fclose(f);
  if (size < 0) return Status::IoError("ftell failed on " + path);
  return static_cast<uint64_t>(size);
}

}  // namespace hydra
