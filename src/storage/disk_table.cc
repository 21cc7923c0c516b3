#include "storage/disk_table.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/failpoint.h"
#include "common/logging.h"

namespace hydra {

// Chaos hooks over the writer's failure surface: file creation (Open and
// PreallocateDiskTable), shard positioning, the data-path writes (disk
// full), and the close/finalize step. tests/storage_test.cc drives each; the
// materialization fleet's one-failed-shard-aborts-all contract is tested
// through them.
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
  return static_cast<int64_t>(::ftello(f));
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

// Row offsets are computed in int64_t and handed to pwrite as off_t; an
// ILP32 build without 64-bit file offsets would wrap multi-GiB tables.
static_assert(sizeof(off_t) == sizeof(int64_t),
              "need 64-bit file offsets; build with -D_FILE_OFFSET_BITS=64");

// open(2) flags that create a table file, or truncate an existing one, for
// writing.
constexpr int kCreateFlags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;

std::string ErrnoText() { return std::strerror(errno); }

// Writes `bytes` bytes of `data` at byte `offset` of `fd`: one pwrite,
// repeated only past EINTR and short writes.
Status WriteAt(int fd, const void* data, size_t bytes, int64_t offset,
               const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd, p, bytes, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IoError("cannot write " + path + ": " +
                             (n < 0 ? ErrnoText() : "no progress"));
    }
    p += n;
    bytes -= static_cast<size_t>(n);
    offset += n;
  }
  return Status::OK();
}

// Opens the existing table at `path` for writing and checks that its header
// is a `num_columns`-wide table's. Guards against stale or foreign files at a
// reused <relation>.tbl path: a width mismatch would put every computed row
// offset at the wrong byte, and a valid row count must never be stamped onto
// bytes that are not a matching in-progress table.
StatusOr<int> OpenTable(const std::string& path, int num_columns,
                        const std::string& purpose) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + " for " + purpose + ": " +
                           ErrnoText());
  }
  Header h{};
  if (::pread(fd, &h, sizeof(h), 0) != static_cast<ssize_t>(sizeof(h)) ||
      h.magic != kMagic ||
      h.num_columns != static_cast<uint64_t>(num_columns)) {
    ::close(fd);
    return Status::IoError("bad header in " + path + " for " + purpose);
  }
  return fd;
}

// Closes `fd`. A failed close becomes `status` unless it already holds an
// error.
Status CloseFd(int fd, const std::string& path, Status status) {
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError("close failed on " + path + ": " + ErrnoText());
  }
  return status;
}

// Allocates bytes [0, bytes) of `fd` (the reservation); see
// PreallocateDiskTable. EOPNOTSUPP leaves the writes to extend the file.
Status Reserve(int fd, uint64_t bytes, const std::string& path) {
  int rc = 0;
  do {
    rc = ::fallocate(fd, 0, 0, static_cast<off_t>(bytes));
  } while (rc != 0 && errno == EINTR);
  if (rc == 0 || errno == EOPNOTSUPP) return Status::OK();
  return Status::IoError("cannot reserve " + std::to_string(bytes) +
                         " bytes for " + path + ": " + ErrnoText());
}

}  // namespace

DiskTableWriter::DiskTableWriter(std::string path, int num_columns)
    : path_(std::move(path)), num_columns_(num_columns) {}

DiskTableWriter::~DiskTableWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status DiskTableWriter::Open() {
  HYDRA_FAILPOINT(g_fp_table_open);
  fd_ = ::open(path_.c_str(), kCreateFlags, 0666);
  if (fd_ < 0) {
    return Status::IoError("cannot open " + path_ + " for writing: " +
                           ErrnoText());
  }
  const Header h{kMagic, static_cast<uint64_t>(num_columns_), 0};
  HYDRA_RETURN_IF_ERROR(WriteAt(fd_, &h, sizeof(h), 0, path_));
  offset_ = sizeof(Header);
  return Status::OK();
}

Status DiskTableWriter::OpenShard(int64_t begin_row) {
  HYDRA_FAILPOINT(g_fp_table_open_shard);
  HYDRA_CHECK_MSG(begin_row >= 0, "negative shard start " << begin_row);
  // The file (and its header) must already exist, and nothing truncates it.
  // Writing past the current end is fine — shards may finish out of order
  // and the gap is filled when the preceding shards land.
  HYDRA_ASSIGN_OR_RETURN(fd_, OpenTable(path_, num_columns_, "shard writing"));
  offset_ = static_cast<int64_t>(sizeof(Header)) +
            begin_row * num_columns_ * static_cast<int64_t>(sizeof(Value));
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
  // write the caller's contiguous rows in one pwrite.
  HYDRA_RETURN_IF_ERROR(FlushBuffer());
  HYDRA_FAILPOINT(g_fp_table_append);
  HYDRA_RETURN_IF_ERROR(
      Write(rows, static_cast<size_t>(num_rows) * num_columns_));
  rows_written_ += num_rows;
  return Status::OK();
}

Status DiskTableWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  HYDRA_FAILPOINT(g_fp_table_append);
  HYDRA_RETURN_IF_ERROR(Write(buffer_.data(), buffer_.size()));
  buffer_.clear();
  return Status::OK();
}

Status DiskTableWriter::Write(const Value* values, size_t count) {
  const size_t bytes = count * sizeof(Value);
  HYDRA_RETURN_IF_ERROR(WriteAt(fd_, values, bytes, offset_, path_));
  offset_ += static_cast<int64_t>(bytes);
  return Status::OK();
}

Status DiskTableWriter::Close() {
  if (fd_ < 0) {
    return Status::IoError(path_ + " is not open");
  }
  Status status = FlushBuffer();
  // Injected inline (not via the early-return macro) so the close below
  // still runs: a chaos-injected close failure must not leak the descriptor.
  if (status.ok() && g_fp_table_close.armed()) status = g_fp_table_close.Fire();
  // Patch the row count into the header — unless this is a shard, whose
  // table is finalized by FinalizeDiskTable once every shard has landed.
  if (status.ok() && !shard_mode_) {
    const Header h{kMagic, static_cast<uint64_t>(num_columns_), rows_written_};
    status = WriteAt(fd_, &h, sizeof(h), 0, path_);
  }
  status = CloseFd(fd_, path_, std::move(status));
  fd_ = -1;
  return status;
}

Status PreallocateDiskTable(const std::string& path, int num_columns,
                            uint64_t reserve_rows) {
  HYDRA_FAILPOINT(g_fp_table_open);
  const uint64_t row_bytes = static_cast<uint64_t>(num_columns) * sizeof(Value);
  constexpr uint64_t kMaxBytes = std::numeric_limits<int64_t>::max();
  if (row_bytes > 0 &&
      reserve_rows > (kMaxBytes - sizeof(Header)) / row_bytes) {
    return Status::OutOfRange("cannot reserve " + std::to_string(reserve_rows) +
                              " rows for " + path +
                              ": the table would pass 2^63 bytes");
  }
  const int fd = ::open(path.c_str(), kCreateFlags, 0666);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + " for writing: " +
                           ErrnoText());
  }
  // The zero-row header lands before the reservation, so a table whose
  // reservation fails still scans as empty.
  const Header h{kMagic, static_cast<uint64_t>(num_columns), 0};
  Status status = WriteAt(fd, &h, sizeof(h), 0, path);
  if (status.ok() && reserve_rows > 0) {
    status = Reserve(fd, sizeof(Header) + reserve_rows * row_bytes, path);
  }
  return CloseFd(fd, path, std::move(status));
}

Status FinalizeDiskTable(const std::string& path, int num_columns,
                         uint64_t num_rows) {
  HYDRA_ASSIGN_OR_RETURN(const int fd,
                         OpenTable(path, num_columns, "finalizing"));
  const Header h{kMagic, static_cast<uint64_t>(num_columns), num_rows};
  return CloseFd(fd, path, WriteAt(fd, &h, sizeof(h), 0, path));
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
