// Disk-backed table storage: a flat binary row-major format with a small
// header, written through positional writes on a file descriptor and read
// back through buffered stdio.
//
// Used by the materialization experiments (Figure 14: time to produce a fully
// materialized database) and the supply-time experiment (Figure 15: classic
// disk scan vs Hydra's dynamic generation).

#ifndef HYDRA_STORAGE_DISK_TABLE_H_
#define HYDRA_STORAGE_DISK_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/table.h"

namespace hydra {

// Streaming writer over a file descriptor. Append() buffers rows and
// flushes them in large chunks; AppendBlock() hands the caller's rows to the
// kernel directly. Either way the bytes reach the file as one pwrite at the
// writer's own offset, repeated only past EINTR and short writes, so no
// stdio stream sits in between and no seek position is shared.
//
// Two modes:
//  * Open() creates the file and appends from row 0; Close() patches the
//    final row count into the header.
//  * OpenShard(begin_row) opens an existing table created by
//    PreallocateDiskTable() and writes from the fixed byte offset of
//    `begin_row` on (rows are fixed-width, so the offset is
//    header + begin_row * num_columns * sizeof(Value)). Multiple shard
//    writers on the same file may run concurrently as long as their row
//    ranges are disjoint — each holds its own descriptor and offset;
//    Close() then leaves the header untouched.
class DiskTableWriter {
 public:
  DiskTableWriter(std::string path, int num_columns);
  ~DiskTableWriter();

  DiskTableWriter(const DiskTableWriter&) = delete;
  DiskTableWriter& operator=(const DiskTableWriter&) = delete;

  Status Open();
  // Shard mode: position an existing preallocated table for writing rows
  // [begin_row, ...). See the class comment.
  Status OpenShard(int64_t begin_row);
  Status Append(const Row& row);
  // Appends `num_rows` contiguous row-major rows in one write, bypassing the
  // per-row buffer.
  Status AppendBlock(const Value* rows, int64_t num_rows);
  // Finalizes the header (whole-file mode only) and closes the file. The
  // file is closed even when finalization fails.
  Status Close();

  uint64_t rows_written() const { return rows_written_; }

 private:
  Status FlushBuffer();
  // Writes `count` values at offset_ and advances it past them.
  Status Write(const Value* values, size_t count);

  std::string path_;
  int num_columns_;
  int fd_ = -1;
  int64_t offset_ = 0;  // file offset of the next row
  bool shard_mode_ = false;
  std::vector<Value> buffer_;
  uint64_t rows_written_ = 0;
};

// Creates (or truncates) `path` holding the header of a `num_columns`-wide
// table with a zero row count (the same in-progress marker a sequential
// Open() leaves until Close() patches it); the data bytes are filled in
// afterwards by shard writers (DiskTableWriter::OpenShard) at their computed
// offsets. Once every row range has been written, FinalizeDiskTable stamps
// the real row count, making the file byte-identical to one produced by a
// single sequential Open()/Append/Close() pass — a crashed or failed
// parallel run therefore still scans as empty, never as a table with
// zero-filled holes.
//
// With `reserve_rows` > 0 the table's final size, header + reserve_rows *
// num_columns * sizeof(Value) bytes, is also allocated up front with
// fallocate (the reservation), after the header is written: shard writers
// then fill allocated blocks instead of extending the file page by page,
// and a full disk fails here, before any row is generated. The file is
// that size from the start and still scans as empty until finalized. A
// filesystem without fallocate (EOPNOTSUPP) gets no reservation and the
// writes extend the file as without one; posix_fallocate is never used,
// because its fallback writes zeros over the whole table. A reservation
// that fails leaves the zero-row header in place and returns kIoError
// naming the table; a size past 2^63 bytes is kOutOfRange before the file is
// touched.
Status PreallocateDiskTable(const std::string& path, int num_columns,
                            uint64_t reserve_rows = 0);

// Patches the header of a preallocated table with its final row count.
Status FinalizeDiskTable(const std::string& path, int num_columns,
                         uint64_t num_rows);

// Scans a disk table, invoking `fn` for each row. Returns the row count.
// kIoError, before anything is allocated, for a header with a bad magic,
// zero columns, or more rows than the file holds.
StatusOr<uint64_t> ScanDiskTable(const std::string& path,
                                 const std::function<void(const Row&)>& fn);

// Reads a whole disk table into memory, transposing it into the Table's
// columns. Rejects headers as ScanDiskTable does.
StatusOr<Table> ReadDiskTable(const std::string& path);

// Writes an in-memory table to `path`, transposing its columns into the
// row-major format a buffer at a time.
Status WriteDiskTable(const Table& table, const std::string& path);

// Size of the file in bytes, or an error.
StatusOr<uint64_t> DiskTableBytes(const std::string& path);

}  // namespace hydra

#endif  // HYDRA_STORAGE_DISK_TABLE_H_
