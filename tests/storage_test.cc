// Unit tests for storage/disk_table.

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "storage/disk_table.h"
#include "workload/toy.h"

namespace hydra {
namespace {

class DiskTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoint::DisarmAll();
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_storage_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    Failpoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

// Lowers this process's file-size limit (RLIMIT_FSIZE) for its lifetime and
// ignores SIGXFSZ, so that a reservation or write past the limit fails with
// EFBIG instead of killing the process. Stands in for a full disk: the
// kernel refuses a reservation past the limit before allocating anything.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(rlim_t bytes) {
    saved_ok_ = ::getrlimit(RLIMIT_FSIZE, &saved_) == 0;
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    ok_ = saved_ok_ && ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~ScopedFileSizeLimit() {
    if (saved_ok_) (void)::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  ScopedFileSizeLimit(const ScopedFileSizeLimit&) = delete;
  ScopedFileSizeLimit& operator=(const ScopedFileSizeLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool saved_ok_ = false;
  bool ok_ = false;
  void (*previous_handler_)(int) = SIG_DFL;
};

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

TEST_F(DiskTableTest, WriteScanRoundTrip) {
  const std::string path = Path("t1.tbl");
  DiskTableWriter writer(path, 3);
  ASSERT_TRUE(writer.Open().ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(writer.Append({i, i * 2, -i}).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.rows_written(), 1000u);

  int64_t next = 0;
  auto rows = ScanDiskTable(path, [&](const Row& r) {
    EXPECT_EQ(r[0], next);
    EXPECT_EQ(r[1], next * 2);
    EXPECT_EQ(r[2], -next);
    ++next;
  });
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 1000u);
  EXPECT_EQ(next, 1000);
}

TEST_F(DiskTableTest, ReadWholeTable) {
  const std::string path = Path("t2.tbl");
  Table t(2);
  t.AppendRow({1, 2});
  t.AppendRow({3, 4});
  ASSERT_TRUE(WriteDiskTable(t, path).ok());
  auto back = ReadDiskTable(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->At(1, 1), 4);
}

TEST_F(DiskTableTest, EmptyTableRoundTrip) {
  const std::string path = Path("t3.tbl");
  DiskTableWriter writer(path, 4);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Close().ok());
  auto rows = ScanDiskTable(path, [](const Row&) { FAIL(); });
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 0u);
}

TEST_F(DiskTableTest, LargeBatchCrossesBufferBoundary) {
  // More rows than the 64K-row internal buffer.
  const std::string path = Path("t4.tbl");
  DiskTableWriter writer(path, 1);
  ASSERT_TRUE(writer.Open().ok());
  const int64_t n = 70000;
  for (int64_t i = 0; i < n; ++i) ASSERT_TRUE(writer.Append({i}).ok());
  ASSERT_TRUE(writer.Close().ok());
  int64_t sum = 0;
  auto rows = ScanDiskTable(path, [&](const Row& r) { sum += r[0]; });
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, static_cast<uint64_t>(n));
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST_F(DiskTableTest, MissingFileIsIoError) {
  auto rows = ScanDiskTable(Path("nope.tbl"), [](const Row&) {});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
}

TEST_F(DiskTableTest, CorruptHeaderRejected) {
  const std::string path = Path("garbage.tbl");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "not a hydra table";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_FALSE(ScanDiskTable(path, [](const Row&) {}).ok());
  EXPECT_FALSE(ReadDiskTable(path).ok());
}

// Rewrites the column and row counts of the table file at `path`, keeping
// its magic and its data bytes.
void ForgeHeader(const std::string& path, uint64_t columns, uint64_t rows) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  f.write(reinterpret_cast<const char*>(&columns), sizeof(columns));
  f.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  ASSERT_TRUE(f.good());
}

TEST_F(DiskTableTest, ForgedHeadersRejectedBeforeAllocating) {
  // 24-byte files holding only a header with the right magic.
  const auto expect_rejected = [this](uint64_t columns, uint64_t rows) {
    SCOPED_TRACE(std::to_string(columns) + " columns, " +
                 std::to_string(rows) + " rows");
    const std::string path = Path("forged.tbl");
    DiskTableWriter writer(path, 1);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Close().ok());
    ForgeHeader(path, columns, rows);
    auto scanned = ScanDiskTable(path, [](const Row&) { FAIL(); });
    EXPECT_EQ(scanned.status().code(), StatusCode::kIoError);
    EXPECT_EQ(ReadDiskTable(path).status().code(), StatusCode::kIoError);
  };
  expect_rejected(3, uint64_t{1} << 62);  // reserve threw: abort
  expect_rejected(3, 100000000);          // reserved 2.4 GB first
  expect_rejected(0, ~uint64_t{0});       // looped for ever
  expect_rejected(0, 5);                  // scanned 5 empty rows
}

TEST_F(DiskTableTest, HeaderClaimingOneRowTooManyRejected) {
  const std::string path = Path("short.tbl");
  Table t(3);
  for (Value i = 0; i < 4; ++i) t.AppendRow({i, i, i});
  ASSERT_TRUE(WriteDiskTable(t, path).ok());
  ASSERT_TRUE(ReadDiskTable(path).ok());
  ForgeHeader(path, 3, 5);
  EXPECT_EQ(ReadDiskTable(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ScanDiskTable(path, [](const Row&) {}).status().code(),
            StatusCode::kIoError);
}

TEST_F(DiskTableTest, WholeTableRoundTripCrossesBufferBoundary) {
  // 70,000 rows cross the 64K-row transpose buffer.
  Table t(3);
  for (Value i = 0; i < 70000; ++i) t.AppendRow({i, -3 * i, i % 7});
  const std::string path = Path("whole.tbl");
  ASSERT_TRUE(WriteDiskTable(t, path).ok());

  // WriteDiskTable's bytes equal a row-by-row DiskTableWriter::Append.
  const std::string rowwise = Path("rowwise.tbl");
  DiskTableWriter writer(rowwise, 3);
  ASSERT_TRUE(writer.Open().ok());
  Row row;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    t.GetRow(r, &row);
    ASSERT_TRUE(writer.Append(row).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  std::ifstream a(path, std::ios::binary), b(rowwise, std::ios::binary);
  const std::vector<char> table_bytes((std::istreambuf_iterator<char>(a)),
                                      std::istreambuf_iterator<char>());
  const std::vector<char> row_bytes((std::istreambuf_iterator<char>(b)),
                                    std::istreambuf_iterator<char>());
  EXPECT_EQ(table_bytes.size(), 24u + 70000u * 3 * sizeof(Value));
  EXPECT_TRUE(table_bytes == row_bytes);

  auto back = ReadDiskTable(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == t);
}

TEST_F(DiskTableTest, ShardWritersProduceSequentialBytes) {
  // Write [0, 1000) sequentially, then the same rows as three out-of-order
  // shards into a preallocated file; the bytes must match exactly.
  const std::string seq_path = Path("seq.tbl");
  DiskTableWriter seq(seq_path, 2);
  ASSERT_TRUE(seq.Open().ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(seq.Append({i, i * 3}).ok());
  }
  ASSERT_TRUE(seq.Close().ok());

  const std::string shard_path = Path("shard.tbl");
  ASSERT_TRUE(PreallocateDiskTable(shard_path, 2).ok());
  for (const auto& [begin, end] : std::vector<std::pair<int64_t, int64_t>>{
           {700, 1000}, {0, 333}, {333, 700}}) {
    DiskTableWriter writer(shard_path, 2);
    ASSERT_TRUE(writer.OpenShard(begin).ok());
    for (int64_t i = begin; i < end; ++i) {
      ASSERT_TRUE(writer.Append({i, i * 3}).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    EXPECT_EQ(writer.rows_written(), static_cast<uint64_t>(end - begin));
  }
  // Before finalization the file must scan as empty (in-progress marker).
  auto in_progress = ScanDiskTable(shard_path, [](const Row&) { FAIL(); });
  ASSERT_TRUE(in_progress.ok());
  EXPECT_EQ(*in_progress, 0u);
  ASSERT_TRUE(FinalizeDiskTable(shard_path, 2, 1000).ok());

  std::ifstream a(seq_path, std::ios::binary), b(shard_path, std::ios::binary);
  const std::vector<char> seq_bytes((std::istreambuf_iterator<char>(a)),
                                    std::istreambuf_iterator<char>());
  const std::vector<char> shard_bytes((std::istreambuf_iterator<char>(b)),
                                      std::istreambuf_iterator<char>());
  EXPECT_EQ(shard_bytes, seq_bytes);
}

TEST_F(DiskTableTest, ShardBlocksScanBack) {
  const std::string path = Path("shard_blocks.tbl");
  ASSERT_TRUE(PreallocateDiskTable(path, 1).ok());
  const Value lo[] = {0, 1, 2, 3};
  const Value hi[] = {4, 5, 6, 7, 8, 9};
  {
    DiskTableWriter writer(path, 1);
    ASSERT_TRUE(writer.OpenShard(4).ok());
    ASSERT_TRUE(writer.AppendBlock(hi, 6).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    DiskTableWriter writer(path, 1);
    ASSERT_TRUE(writer.OpenShard(0).ok());
    ASSERT_TRUE(writer.AppendBlock(lo, 4).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  ASSERT_TRUE(FinalizeDiskTable(path, 1, 10).ok());
  int64_t next = 0;
  auto rows = ScanDiskTable(path, [&](const Row& r) {
    EXPECT_EQ(r[0], next);
    ++next;
  });
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 10u);
}

TEST_F(DiskTableTest, ReservedTableScansAsEmptyUntilFinalized) {
  // The reservation gives the table its final size at once; the zero-row
  // header still marks it in progress for both readers.
  const std::string path = Path("reserved.tbl");
  ASSERT_TRUE(PreallocateDiskTable(path, 3, 500).ok());
  auto bytes = DiskTableBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, 24u + 500u * 3 * sizeof(Value));
  auto rows = ScanDiskTable(path, [](const Row&) { FAIL(); });
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, 0u);
  auto table = ReadDiskTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_columns(), 3);
  EXPECT_EQ(table->num_rows(), 0u);
}

TEST_F(DiskTableTest, ReservedShardWritersProduceSequentialBytes) {
  // ShardWritersProduceSequentialBytes over a reserved table: the shards
  // overwrite reserved bytes instead of extending the file, out of order,
  // through both the buffered and the block path.
  const std::string seq_path = Path("seq.tbl");
  DiskTableWriter seq(seq_path, 2);
  ASSERT_TRUE(seq.Open().ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(seq.Append({i, i * 3}).ok());
  }
  ASSERT_TRUE(seq.Close().ok());

  const std::string shard_path = Path("reserved_shard.tbl");
  ASSERT_TRUE(PreallocateDiskTable(shard_path, 2, 1000).ok());
  for (const auto& [begin, end] : std::vector<std::pair<int64_t, int64_t>>{
           {700, 1000}, {0, 333}, {333, 700}}) {
    DiskTableWriter writer(shard_path, 2);
    ASSERT_TRUE(writer.OpenShard(begin).ok());
    if (begin == 0) {
      std::vector<Value> block;
      for (int64_t i = begin; i < end; ++i) {
        block.insert(block.end(), {i, i * 3});
      }
      ASSERT_TRUE(writer.AppendBlock(block.data(), end - begin).ok());
    } else {
      for (int64_t i = begin; i < end; ++i) {
        ASSERT_TRUE(writer.Append({i, i * 3}).ok());
      }
    }
    ASSERT_TRUE(writer.Close().ok());
    EXPECT_EQ(writer.rows_written(), static_cast<uint64_t>(end - begin));
    // Every row may be in place; only finalization makes them readable.
    EXPECT_EQ(FileBytes(shard_path).size(), 24u + 1000u * 2 * sizeof(Value));
    auto in_progress = ScanDiskTable(shard_path, [](const Row&) { FAIL(); });
    ASSERT_TRUE(in_progress.ok());
    EXPECT_EQ(*in_progress, 0u);
  }
  ASSERT_TRUE(FinalizeDiskTable(shard_path, 2, 1000).ok());
  EXPECT_EQ(FileBytes(shard_path), FileBytes(seq_path));
}

TEST_F(DiskTableTest, FailedReservationLeavesTableInProgress) {
  const std::string path = Path("unreservable.tbl");
  // Past 2^63 bytes: refused before the file is touched.
  EXPECT_EQ(PreallocateDiskTable(path, 3, uint64_t{1} << 62).code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(std::filesystem::exists(path));

  Status status;
  {
    ScopedFileSizeLimit limit(4096);
    ASSERT_TRUE(limit.ok());
    status = PreallocateDiskTable(path, 3, 1000);  // 24,024 bytes
  }
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.ToString();
  // The header landed before the reservation failed.
  auto rows = ScanDiskTable(path, [](const Row&) { FAIL(); });
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, 0u);
}

TEST_F(DiskTableTest, OpenShardRequiresExistingFile) {
  DiskTableWriter writer(Path("absent.tbl"), 2);
  EXPECT_EQ(writer.OpenShard(0).code(), StatusCode::kIoError);
}

TEST_F(DiskTableTest, OpenShardRejectsMismatchedHeader) {
  // A stale file with a different column count at the same path must be an
  // error, not silently misaligned row offsets.
  const std::string path = Path("stale.tbl");
  ASSERT_TRUE(PreallocateDiskTable(path, 3).ok());
  DiskTableWriter writer(path, 2);
  EXPECT_EQ(writer.OpenShard(0).code(), StatusCode::kIoError);

  const std::string garbage = Path("garbage_shard.tbl");
  std::ofstream(garbage, std::ios::binary) << "not a hydra table at all....";
  DiskTableWriter writer2(garbage, 2);
  EXPECT_EQ(writer2.OpenShard(0).code(), StatusCode::kIoError);
}

TEST_F(DiskTableTest, BytesReflectsContent) {
  const std::string path = Path("t5.tbl");
  Table t(2);
  for (int i = 0; i < 100; ++i) t.AppendRow({i, i});
  ASSERT_TRUE(WriteDiskTable(t, path).ok());
  auto bytes = DiskTableBytes(path);
  ASSERT_TRUE(bytes.ok());
  // Header (24 bytes) + 200 values.
  EXPECT_EQ(*bytes, 24u + 200u * sizeof(Value));
}

// ---- injected-fault error paths (docs/robustness.md) ----------------------

TEST_F(DiskTableTest, InjectedOpenFailureSurfacesCleanly) {
  ASSERT_TRUE(Failpoint::ArmFromString("disk_table/open=error(IO_ERROR)").ok());
  DiskTableWriter writer(Path("never_created.tbl"), 2);
  EXPECT_EQ(writer.Open().code(), StatusCode::kIoError);
  // The writer was never opened; closing is still safe and the failure left
  // no half-created file behind the caller's back.
  (void)writer.Close();
  // Preallocation creates tables through the same point.
  EXPECT_EQ(PreallocateDiskTable(Path("never_created.tbl"), 2, 10).code(),
            StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(Path("never_created.tbl")));
}

TEST_F(DiskTableTest, DiskFullMidWriteLeavesFileScanningAsEmpty) {
  const std::string path = Path("diskfull.tbl");
  DiskTableWriter writer(path, 2);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(writer.Append({i, i}).ok());
  // From here every flush fails, as if the disk filled under the buffer.
  ASSERT_TRUE(
      Failpoint::ArmFromString("disk_table/append=error(IO_ERROR)").ok());
  Status status = Status::OK();
  for (int i = 0; i < 100000 && status.ok(); ++i) {
    status = writer.Append({i, i});
  }
  const Status close_status = writer.Close();
  // The failure surfaced on the buffered-append path or at Close — never
  // silently — and the unfinalized header makes the file scan as empty.
  EXPECT_TRUE(!status.ok() || !close_status.ok());
  auto rows = ScanDiskTable(path, [](const Row&) { FAIL(); });
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 0u);
}

TEST_F(DiskTableTest, InjectedShardOpenFailure) {
  const std::string path = Path("shardfail.tbl");
  ASSERT_TRUE(PreallocateDiskTable(path, 2).ok());
  ASSERT_TRUE(
      Failpoint::ArmFromString("disk_table/open_shard=error(IO_ERROR)").ok());
  DiskTableWriter writer(path, 2);
  EXPECT_EQ(writer.OpenShard(0).code(), StatusCode::kIoError);
}

// Asserts that every table of `summary` under `dir` scans as empty (the
// in-progress marker).
void ExpectEveryTableEmpty(const DatabaseSummary& summary,
                           const std::filesystem::path& dir) {
  for (int r = 0; r < summary.schema.num_relations(); ++r) {
    const std::string path =
        (dir / (summary.schema.relation(r).name() + ".tbl")).string();
    auto rows = ScanDiskTable(path, [](const Row&) { FAIL(); });
    ASSERT_TRUE(rows.ok()) << path << ": " << rows.status().ToString();
    EXPECT_EQ(*rows, 0u) << path << " scanned rows after an aborted fleet";
  }
}

DatabaseSummary ToySummary() {
  const ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto regen = hydra.Regenerate(env.ccs);
  HYDRA_CHECK_MSG(regen.ok(), regen.status().ToString());
  return std::move(regen->summary);
}

// Arms disk_table/open_shard with a zero delay: every shard open is counted
// in hits() and none fails.
const Failpoint& CountShardOpens() {
  EXPECT_TRUE(Failpoint::ArmFromString("disk_table/open_shard=delay(0)").ok());
  const Failpoint* point = Failpoint::Find("disk_table/open_shard");
  HYDRA_CHECK(point != nullptr);
  return *point;
}

GenerationOptions FleetOptions() {
  GenerationOptions options;
  options.num_threads = 4;
  options.shard_rows = 256;  // many shards per relation: a real fleet
  return options;
}

// One failed shard aborts the whole materialization fleet cleanly: the
// error propagates, no header is ever finalized, and every output file
// scans as empty — never as a table with zero-filled holes
// (the MaterializeToDisk contract in tuple_generator.cc).
TEST_F(DiskTableTest, FailedShardAbortsMaterializationFleet) {
  const DatabaseSummary summary = ToySummary();
  const GenerationOptions options = FleetOptions();
  const auto expect_abort_then_retry = [&](const std::string& fault) {
    SCOPED_TRACE(fault);
    ASSERT_TRUE(Failpoint::ArmFromString(fault).ok());
    const auto bytes = MaterializeToDisk(summary, dir_.string(), options);
    ASSERT_FALSE(bytes.ok());
    EXPECT_EQ(bytes.status().code(), StatusCode::kIoError);
    Failpoint::DisarmAll();
    ExpectEveryTableEmpty(summary, dir_);

    // The same summary materializes fine once the fault clears — the
    // aborted run left nothing poisoned behind.
    const auto retry = MaterializeToDisk(summary, dir_.string(), options);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_GT(*retry, 0u);
  };
  expect_abort_then_retry("disk_table/open_shard=error(IO_ERROR,times=1)");
  // A failed pwrite under the table lock.
  expect_abort_then_retry("disk_table/append=error(IO_ERROR,times=1)");

  // A table that cannot be created fails the fleet in its preallocation.
  // The fault fires on the first table, before anything is truncated, so
  // the directory still holds the last retry's tables whole, and no shard
  // opened its table.
  const Failpoint& open_shard = CountShardOpens();
  const uint64_t shards_before = open_shard.hits();
  ASSERT_TRUE(
      Failpoint::ArmFromString("disk_table/open=error(IO_ERROR,times=1)").ok());
  const auto bytes = MaterializeToDisk(summary, dir_.string(), options);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kIoError);
  EXPECT_EQ(open_shard.hits(), shards_before);
  Failpoint::DisarmAll();
  const TupleGenerator gen(summary);
  for (int r = 0; r < summary.schema.num_relations(); ++r) {
    const std::string path =
        (dir_ / (summary.schema.relation(r).name() + ".tbl")).string();
    auto rows = ScanDiskTable(path, [](const Row&) {});
    ASSERT_TRUE(rows.ok()) << path << ": " << rows.status().ToString();
    EXPECT_EQ(*rows, gen.RowCount(r)) << path;
  }
  const auto retry = MaterializeToDisk(summary, dir_.string(), options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

// A reservation that fails (past a lowered file-size limit, standing in for
// a full disk) fails the fleet before any shard opens its table. Every
// table is emptied before any is reserved, so all of them scan as empty,
// the one named in the error included.
TEST_F(DiskTableTest, FailedReservationAbortsFleetBeforeAnyShard) {
  const DatabaseSummary summary = ToySummary();
  const GenerationOptions options = FleetOptions();
  // A complete run first: the failed one must not leave it readable.
  ASSERT_TRUE(MaterializeToDisk(summary, dir_.string(), options).ok());

  const Failpoint& open_shard = CountShardOpens();
  const uint64_t shards_before = open_shard.hits();
  StatusOr<uint64_t> bytes = Status::Internal("not run");
  {
    // S, the first table (700 x 3 values, 16.8 KB), cannot be reserved
    // under 4 KiB; T and R, after it, still hold the complete run.
    ScopedFileSizeLimit limit(4096);
    ASSERT_TRUE(limit.ok());
    bytes = MaterializeToDisk(summary, dir_.string(), options);
  }
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kIoError);
  EXPECT_NE(bytes.status().message().find((dir_ / "S.tbl").string()),
            std::string::npos)
      << bytes.status().ToString();
  EXPECT_EQ(open_shard.hits(), shards_before);
  Failpoint::DisarmAll();
  ExpectEveryTableEmpty(summary, dir_);

  const auto retry = MaterializeToDisk(summary, dir_.string(), options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

}  // namespace
}  // namespace hydra
