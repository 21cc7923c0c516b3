// Tests for the range-partitioned generation pipeline: ScanRange /
// ScanBlocksRange starting at arbitrary ranks, and parallel sharded
// materialization producing byte-identical output (docs/generation.md).

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "storage/disk_table.h"
#include "workload/toy.h"

namespace hydra {
namespace {

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

// A summary built by hand so that tests control exactly where summary-row
// boundaries fall: counts are deliberately uneven (including a zero-count
// row) so range and shard boundaries cut through the middle of rows.
DatabaseSummary MakeHandSummary() {
  Relation u("U", 0);
  u.AddPrimaryKey("U_pk");
  u.AddDataAttribute("X", Interval(0, 1000));
  u.AddDataAttribute("Y", Interval(0, 1000));
  Schema schema;
  schema.AddRelation(std::move(u));

  RelationSummary rs;
  rs.relation = 0;
  rs.attr_indices = {1, 2};
  const int64_t counts[] = {3, 7, 0, 11, 1, 5};
  int64_t total = 0;
  for (size_t i = 0; i < std::size(counts); ++i) {
    SolutionRow row;
    row.values = {static_cast<Value>(10 * (i + 1)),
                  static_cast<Value>(10 * (i + 1) + 1)};
    row.count = counts[i];
    total += counts[i];
    rs.rows.push_back(std::move(row));
  }
  rs.Finalize();

  DatabaseSummary summary;
  summary.schema = std::move(schema);
  summary.schema.mutable_relation(0).set_row_count(total);
  summary.relations.push_back(std::move(rs));
  summary.extra_tuples = {0};
  return summary;
}

// Run lengths 2^k - 1, 2^k and 2^k + 1 for k = 0..12, then one 10,007-tuple
// run: whatever FillRange's tile size, some run ends just before, on and just
// after a tile boundary, and one run fills many tiles.
std::vector<int64_t> TileProbeRunLengths() {
  std::vector<int64_t> lengths;
  for (int k = 0; k <= 12; ++k) {
    const int64_t p = int64_t{1} << k;
    lengths.insert(lengths.end(), {p - 1, p, p + 1});
  }
  lengths.push_back(10007);
  return lengths;
}

// Three relations over TileProbeRunLengths, each run with its own values:
// `PkSecond` (X, PK, an attribute no summary column covers, Z), `PkOnly`
// and `NoPk` (two data attributes, no PK).
DatabaseSummary MakeTileSummary() {
  Schema schema;
  Relation pk_second("PkSecond", 0);
  pk_second.AddDataAttribute("X", Interval(0, 1 << 20));
  pk_second.AddPrimaryKey("PkSecond_pk");
  pk_second.AddDataAttribute("Uncovered", Interval(0, 10));
  pk_second.AddDataAttribute("Z", Interval(0, 1 << 20));
  schema.AddRelation(std::move(pk_second));
  Relation pk_only("PkOnly", 0);
  pk_only.AddPrimaryKey("PkOnly_pk");
  schema.AddRelation(std::move(pk_only));
  Relation no_pk("NoPk", 0);
  no_pk.AddDataAttribute("A", Interval(0, 1 << 20));
  no_pk.AddDataAttribute("B", Interval(0, 1 << 20));
  schema.AddRelation(std::move(no_pk));
  const std::vector<std::vector<int>> covered = {{0, 3}, {}, {0, 1}};

  DatabaseSummary summary;
  const std::vector<int64_t> lengths = TileProbeRunLengths();
  for (int r = 0; r < schema.num_relations(); ++r) {
    RelationSummary rs;
    rs.relation = r;
    rs.attr_indices = covered[r];
    int64_t total = 0;
    for (size_t i = 0; i < lengths.size(); ++i) {
      SolutionRow row;
      for (size_t a = 0; a < covered[r].size(); ++a) {
        row.values.push_back(static_cast<Value>(1000 * (a + 1) + i));
      }
      row.count = lengths[i];
      total += lengths[i];
      rs.rows.push_back(std::move(row));
    }
    rs.Finalize();
    schema.mutable_relation(r).set_row_count(total);
    summary.relations.push_back(std::move(rs));
  }
  summary.schema = std::move(schema);
  summary.extra_tuples.assign(summary.schema.num_relations(), 0);
  return summary;
}

std::vector<Row> CollectScan(const TableSource& source, int relation) {
  std::vector<Row> rows;
  source.Scan(relation, [&](const Row& r) { rows.push_back(r); });
  return rows;
}

class GenerationRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeToyEnvironment();
    HydraRegenerator hydra(env_.schema);
    auto result = hydra.Regenerate(env_.ccs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    summary_ = std::move(result->summary);
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_genrange_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Dir(const std::string& sub) {
    const auto d = dir_ / sub;
    std::filesystem::create_directories(d);
    return d.string();
  }

  ToyEnvironment env_;
  DatabaseSummary summary_;
  std::filesystem::path dir_;
};

TEST_F(GenerationRangeTest, ScanRangeConcatenationMatchesScan) {
  TupleGenerator gen(summary_);
  Rng rng(7);
  for (int rel = 0; rel < env_.schema.num_relations(); ++rel) {
    const std::vector<Row> full = CollectScan(gen, rel);
    const int64_t n = static_cast<int64_t>(full.size());
    for (int trial = 0; trial < 8; ++trial) {
      // Random split of [0, n) into up to 5 ranges.
      std::vector<int64_t> cuts = {0, n};
      for (int c = 0; c < 4; ++c) cuts.push_back(rng.NextInt(0, n + 1));
      std::sort(cuts.begin(), cuts.end());
      std::vector<Row> glued;
      for (size_t i = 0; i + 1 < cuts.size(); ++i) {
        gen.ScanRange(rel, cuts[i], cuts[i + 1],
                      [&](const Row& r) { glued.push_back(r); });
      }
      ASSERT_EQ(glued, full) << "relation " << rel << " trial " << trial;
    }
  }
}

TEST_F(GenerationRangeTest, ScanRangeCrossesSummaryRowBoundaries) {
  const DatabaseSummary hand = MakeHandSummary();
  TupleGenerator gen(hand);
  const std::vector<Row> full = CollectScan(gen, 0);
  ASSERT_EQ(full.size(), 27u);
  // Every possible [begin, end) — including ranges that start and stop in
  // the middle of a summary row and ranges spanning the zero-count row.
  for (int64_t begin = 0; begin <= 27; ++begin) {
    for (int64_t end = begin; end <= 27; ++end) {
      std::vector<Row> part;
      gen.ScanRange(0, begin, end, [&](const Row& r) { part.push_back(r); });
      ASSERT_EQ(part.size(), static_cast<size_t>(end - begin));
      for (int64_t i = begin; i < end; ++i) {
        ASSERT_EQ(part[i - begin], full[i]) << "range [" << begin << ", "
                                            << end << ") rank " << i;
      }
    }
  }
}

TEST_F(GenerationRangeTest, ScanBlocksRangeConcatenationMatchesScan) {
  const DatabaseSummary hand = MakeHandSummary();
  TupleGenerator gen(hand);
  const std::vector<Row> full = CollectScan(gen, 0);
  const int width = hand.schema.relation(0).num_attributes();
  // Block size deliberately misaligned with both summary-row and range
  // boundaries.
  for (const int64_t block_rows : {1, 4, 100}) {
    for (const std::vector<int64_t>& cuts :
         {std::vector<int64_t>{0, 27}, {0, 5, 27}, {0, 10, 11, 20, 27}}) {
      std::vector<Row> glued;
      for (size_t i = 0; i + 1 < cuts.size(); ++i) {
        gen.ScanBlocksRange(0, cuts[i], cuts[i + 1], block_rows,
                            [&](const Value* rows, int64_t n) {
                              for (int64_t r = 0; r < n; ++r) {
                                glued.emplace_back(rows + r * width,
                                                   rows + (r + 1) * width);
                              }
                            });
      }
      ASSERT_EQ(glued, full) << "block_rows " << block_rows;
    }
  }
}

TEST_F(GenerationRangeTest, FillRangeMatchesScan) {
  const DatabaseSummary hand = MakeHandSummary();
  TupleGenerator gen(hand);
  const std::vector<Row> full = CollectScan(gen, 0);
  const int width = hand.schema.relation(0).num_attributes();
  for (int64_t begin = 0; begin <= 27; begin += 5) {
    for (int64_t end = begin; end <= 27; end += 4) {
      std::vector<Value> buf(static_cast<size_t>(end - begin) * width, -1);
      gen.FillRange(0, begin, end, buf.data());
      for (int64_t i = begin; i < end; ++i) {
        const Row got(buf.begin() + (i - begin) * width,
                      buf.begin() + (i - begin + 1) * width);
        ASSERT_EQ(got, full[i]) << "rank " << i;
      }
    }
  }
}

// FillRange against GetTuple, rank by rank, on ranges that start on a prime
// stride and at every run start, and end inside runs and past several. The
// buffer starts as a sentinel and runs on past the range for more rows than
// an L1-sized tile holds, so a value FillRange leaves unwritten, or one it
// writes past the range, shows.
TEST_F(GenerationRangeTest, TiledFillRangeMatchesGetTuple) {
  const DatabaseSummary tiles = MakeTileSummary();
  const TupleGenerator gen(tiles);
  constexpr Value kSentinel = -7;
  constexpr int64_t kGuardRows = 8192;
  for (int rel = 0; rel < tiles.schema.num_relations(); ++rel) {
    const int width = tiles.schema.relation(rel).num_attributes();
    const int64_t n = static_cast<int64_t>(gen.RowCount(rel));
    std::vector<int64_t> begins = tiles.relations[rel].prefix_counts;
    for (int64_t b = 0; b < n; b += 613) begins.push_back(b);
    Row expected;
    for (const int64_t begin : begins) {
      for (const int64_t span : {int64_t{1}, int64_t{97}, int64_t{1021},
                                 int64_t{8999}, n}) {
        const int64_t end = std::min(n, begin + span);
        std::vector<Value> buf((end - begin + kGuardRows) * width, kSentinel);
        gen.FillRange(rel, begin, end, buf.data());
        for (int64_t r = begin; r < end; ++r) {
          gen.GetTuple(rel, r, &expected);
          const Row got(buf.begin() + (r - begin) * width,
                        buf.begin() + (r - begin + 1) * width);
          ASSERT_EQ(got, expected) << tiles.schema.relation(rel).name()
                                   << " range [" << begin << ", " << end
                                   << ") rank " << r;
        }
        for (size_t i = (end - begin) * width; i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], kSentinel)
              << tiles.schema.relation(rel).name() << " range [" << begin
              << ", " << end << ") wrote past its end";
        }
      }
    }
  }
  // PkSecond's PK is its rank, and the attribute no summary column covers
  // reads 0.
  const int64_t n = static_cast<int64_t>(gen.RowCount(0));
  const int width = tiles.schema.relation(0).num_attributes();
  std::vector<Value> rows(n * width, kSentinel);
  gen.FillRange(0, 0, n, rows.data());
  for (int64_t r = 0; r < n; ++r) {
    ASSERT_EQ(rows[r * width + 1], r);
    ASSERT_EQ(rows[r * width + 2], 0) << "rank " << r;
  }
}

// A heads fill (RowBlock::RequestHeads) is the full fill collapsed run by
// run: one row per non-empty summary run of the range, holding on every
// live column the full fill's row at the run's first rank, weighted by the
// run's length. Ranges start at every run start of the tile summary and on
// a prime stride, and end inside runs and past several; NoPk has no PK,
// and the zero-count summary row yields no head. The database ignores the
// request.
TEST_F(GenerationRangeTest, HeadsFillCollapsesTheFullFillRunByRun) {
  const DatabaseSummary tiles = MakeTileSummary();
  const TupleGenerator gen(tiles);
  auto db = MaterializeDatabase(tiles);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int rel = 0; rel < tiles.schema.num_relations(); ++rel) {
    const std::string& name = tiles.schema.relation(rel).name();
    const int width = tiles.schema.relation(rel).num_attributes();
    const RelationSummary& rs = tiles.relations[rel];
    const int64_t n = static_cast<int64_t>(gen.RowCount(rel));
    std::vector<int64_t> begins = rs.prefix_counts;
    for (int64_t b = 0; b < n; b += 613) begins.push_back(b);
    const std::vector<std::vector<int>> projections = {{}, {width - 1}};
    for (const int64_t begin : begins) {
      for (const int64_t span : {int64_t{1}, int64_t{97}, int64_t{1021},
                                 int64_t{8999}, n}) {
        const int64_t end = std::min(n, begin + span);
        const std::string where = name + " [" + std::to_string(begin) +
                                  ", " + std::to_string(end) + ")";
        RowBlock full(width);
        gen.FillBlockRange(rel, begin, end, &full);
        // The runs of [begin, end), from the summary's counts.
        std::vector<std::pair<int64_t, int64_t>> runs;  // first rank, length
        for (size_t i = 0; i < rs.rows.size(); ++i) {
          const int64_t first = std::max(begin, rs.prefix_counts[i]);
          const int64_t stop =
              std::min(end, rs.prefix_counts[i] + rs.rows[i].count);
          if (stop > first) runs.push_back({first, stop - first});
        }
        for (const std::vector<int>& live : projections) {
          RowBlock heads(width);
          if (!live.empty()) heads.SetLiveColumns(live);
          heads.RequestHeads();
          gen.FillBlockRange(rel, begin, end, &heads);
          ASSERT_EQ(heads.num_rows(), static_cast<int64_t>(runs.size()))
              << where;
          ASSERT_TRUE(heads.weighted()) << where;
          uint64_t rows = 0;
          for (size_t k = 0; k < runs.size(); ++k) {
            const auto [first, length] = runs[k];
            ASSERT_EQ(heads.weights()[k], static_cast<uint64_t>(length))
                << where << " head " << k;
            rows += heads.weights()[k];
            for (int c = 0; c < width; ++c) {
              if (!heads.IsLive(c)) continue;
              ASSERT_EQ(heads.At(static_cast<int64_t>(k), c),
                        full.At(first - begin, c))
                  << where << " head " << k << " column " << c;
            }
          }
          EXPECT_EQ(rows, static_cast<uint64_t>(end - begin)) << where;
        }
      }
    }

    // A fill appended to a non-empty block, and a database fill, ignore
    // the request and fill every row.
    RowBlock appended(width);
    gen.FillBlockRange(rel, 0, 1, &appended);
    appended.RequestHeads();
    gen.FillBlockRange(rel, 1, n, &appended);
    EXPECT_EQ(appended.num_rows(), n) << name;
    EXPECT_FALSE(appended.weighted()) << name;
    RowBlock from_db(width);
    from_db.RequestHeads();
    db->FillBlockRange(rel, 0, n, &from_db);
    EXPECT_EQ(from_db.num_rows(), n) << name;
    EXPECT_FALSE(from_db.weighted()) << name;
  }
}

// MaterializeToDisk's tiled fill against the columnar oracle
// (WriteDiskTable over MaterializeDatabase), byte for byte.
TEST_F(GenerationRangeTest, TiledMaterializeToDiskMatchesWrittenDatabase) {
  const DatabaseSummary tiles = MakeTileSummary();
  auto db = MaterializeDatabase(tiles);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::string oracle_dir = Dir("tile_oracle");
  for (int r = 0; r < tiles.schema.num_relations(); ++r) {
    const std::string path =
        oracle_dir + "/" + tiles.schema.relation(r).name() + ".tbl";
    ASSERT_TRUE(WriteDiskTable(db->table(r), path).ok());
  }
  GenerationOptions cut;
  cut.shard_rows = 1009;
  cut.block_rows = 100;
  const std::vector<GenerationOptions> configs = {GenerationOptions{}, cut};
  for (size_t c = 0; c < configs.size(); ++c) {
    const std::string dir = Dir("tile_config" + std::to_string(c));
    auto bytes = MaterializeToDisk(tiles, dir, configs[c]);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    for (int r = 0; r < tiles.schema.num_relations(); ++r) {
      const std::string name = tiles.schema.relation(r).name() + ".tbl";
      EXPECT_EQ(ReadFileBytes(dir + "/" + name),
                ReadFileBytes(oracle_dir + "/" + name))
          << name << " differs from the oracle in config " << c;
    }
  }
}

TEST_F(GenerationRangeTest, ParallelMaterializeToDiskByteIdentical) {
  GenerationOptions sequential;
  sequential.num_threads = 1;
  // A prime shard size guarantees shard boundaries land mid-summary-row.
  sequential.shard_rows = 1009;
  const std::string seq_dir = Dir("seq");
  auto seq_bytes = MaterializeToDisk(summary_, seq_dir, sequential);
  ASSERT_TRUE(seq_bytes.ok()) << seq_bytes.status().ToString();

  for (const int threads : {2, 4}) {
    GenerationOptions parallel = sequential;
    parallel.num_threads = threads;
    const std::string par_dir = Dir("par" + std::to_string(threads));
    auto par_bytes = MaterializeToDisk(summary_, par_dir, parallel);
    ASSERT_TRUE(par_bytes.ok()) << par_bytes.status().ToString();
    EXPECT_EQ(*par_bytes, *seq_bytes);
    for (int r = 0; r < env_.schema.num_relations(); ++r) {
      const std::string name = env_.schema.relation(r).name() + ".tbl";
      EXPECT_EQ(ReadFileBytes(par_dir + "/" + name),
                ReadFileBytes(seq_dir + "/" + name))
          << name << " differs at num_threads=" << threads;
    }
  }
}

// An oracle that shares neither MaterializeToDisk's row-major fill nor its
// shard writers: MaterializeDatabase fills the columns in memory, and
// WriteDiskTable writes each table sequentially, unreserved.
TEST_F(GenerationRangeTest, MaterializeToDiskMatchesWrittenDatabase) {
  GenerationOptions in_memory;
  in_memory.num_threads = 1;
  auto db = MaterializeDatabase(summary_, in_memory);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::string oracle_dir = Dir("oracle");
  uint64_t oracle_bytes = 0;
  for (int r = 0; r < env_.schema.num_relations(); ++r) {
    const std::string path =
        oracle_dir + "/" + env_.schema.relation(r).name() + ".tbl";
    ASSERT_TRUE(WriteDiskTable(db->table(r), path).ok());
    oracle_bytes += ReadFileBytes(path).size();
  }

  // Defaults, then 1, 2 and 4 threads with shards and blocks that cut
  // through summary runs and several shards per table sharing its lock.
  std::vector<GenerationOptions> configs(1);
  for (const int threads : {1, 2, 4}) {
    GenerationOptions options;
    options.num_threads = threads;
    options.shard_rows = 1009;
    options.block_rows = 100;
    configs.push_back(options);
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    const std::string dir = Dir("config" + std::to_string(c));
    auto bytes = MaterializeToDisk(summary_, dir, configs[c]);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, oracle_bytes) << "config " << c;
    for (int r = 0; r < env_.schema.num_relations(); ++r) {
      const std::string name = env_.schema.relation(r).name() + ".tbl";
      EXPECT_EQ(ReadFileBytes(dir + "/" + name),
                ReadFileBytes(oracle_dir + "/" + name))
          << name << " differs from the oracle in config " << c;
    }
  }
}

TEST_F(GenerationRangeTest, ShardsSmallerThanSummaryRowsRoundTrip) {
  const DatabaseSummary hand = MakeHandSummary();
  TupleGenerator gen(hand);
  GenerationOptions options;
  options.num_threads = 3;
  options.shard_rows = 5;  // the 11-count summary row spans 3+ shards
  options.block_rows = 2;
  const std::string dir = Dir("hand");
  auto bytes = MaterializeToDisk(hand, dir, options);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  auto table = ReadDiskTable(dir + "/U.tbl");
  ASSERT_TRUE(table.ok());
  const std::vector<Row> full = CollectScan(gen, 0);
  ASSERT_EQ(table->num_rows(), full.size());
  for (uint64_t r = 0; r < table->num_rows(); ++r) {
    Row row;
    table->GetRow(r, &row);
    EXPECT_EQ(row, full[r]) << "rank " << r;
  }
}

TEST_F(GenerationRangeTest, ParallelMaterializeDatabaseMatchesSequential) {
  GenerationOptions sequential;
  sequential.num_threads = 1;
  sequential.shard_rows = 997;
  auto seq = MaterializeDatabase(summary_, sequential);
  ASSERT_TRUE(seq.ok());

  GenerationOptions parallel = sequential;
  parallel.num_threads = 4;
  auto par = MaterializeDatabase(summary_, parallel);
  ASSERT_TRUE(par.ok());

  for (int r = 0; r < env_.schema.num_relations(); ++r) {
    ASSERT_EQ(par->RowCount(r), seq->RowCount(r));
    EXPECT_EQ(par->table(r), seq->table(r)) << "relation " << r;
  }
}

// Every table of MaterializeDatabase holds, row for row, what FillRange
// generates row-major over the relation's whole rank range.
void ExpectMaterializedEqualsFillRange(const DatabaseSummary& summary,
                                       const GenerationOptions& options) {
  auto db = MaterializeDatabase(summary, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const TupleGenerator gen(summary);
  for (int r = 0; r < summary.schema.num_relations(); ++r) {
    const int64_t n = static_cast<int64_t>(gen.RowCount(r));
    const Table& t = db->table(r);
    ASSERT_EQ(t.num_rows(), static_cast<uint64_t>(n));
    std::vector<Value> rows(n * t.num_columns());
    gen.FillRange(r, 0, n, rows.data());
    for (int64_t i = 0; i < n; ++i) {
      for (int c = 0; c < t.num_columns(); ++c) {
        ASSERT_EQ(t.At(i, c), rows[i * t.num_columns() + c])
            << "relation " << r << " rank " << i << " column " << c;
      }
    }
  }
}

TEST_F(GenerationRangeTest, MaterializeDatabaseMatchesFillRange) {
  GenerationOptions options;
  options.num_threads = 3;
  options.shard_rows = 997;
  ExpectMaterializedEqualsFillRange(summary_, options);
  options.shard_rows = 5;  // shards cut through the hand summary's runs
  ExpectMaterializedEqualsFillRange(MakeHandSummary(), options);
}

TEST_F(GenerationRangeTest, RegeneratorMaterializeUsesGenerationOptions) {
  // One HydraOptions configures the whole regenerate→materialize pipeline;
  // the wrappers must match the free functions byte for byte.
  HydraOptions opts;
  opts.generation.num_threads = 3;
  opts.generation.shard_rows = 1009;
  HydraRegenerator hydra(env_.schema, opts);
  auto result = hydra.Regenerate(env_.ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto db = hydra.Materialize(result->summary);
  ASSERT_TRUE(db.ok());
  auto reference = MaterializeDatabase(result->summary);
  ASSERT_TRUE(reference.ok());
  for (int r = 0; r < env_.schema.num_relations(); ++r) {
    EXPECT_EQ(db->table(r), reference->table(r)) << "relation " << r;
  }

  const std::string wrapper_dir = Dir("wrapper");
  const std::string free_dir = Dir("free");
  auto wrapper_bytes = hydra.MaterializeToDisk(result->summary, wrapper_dir);
  ASSERT_TRUE(wrapper_bytes.ok()) << wrapper_bytes.status().ToString();
  auto free_bytes = MaterializeToDisk(result->summary, free_dir);
  ASSERT_TRUE(free_bytes.ok()) << free_bytes.status().ToString();
  EXPECT_EQ(*wrapper_bytes, *free_bytes);
  for (int r = 0; r < env_.schema.num_relations(); ++r) {
    const std::string name = env_.schema.relation(r).name() + ".tbl";
    EXPECT_EQ(ReadFileBytes(wrapper_dir + "/" + name),
              ReadFileBytes(free_dir + "/" + name));
  }
}

TEST_F(GenerationRangeTest, TupleGeneratorRangeMatchesMaterializedRange) {
  // The TableSource contract: generator and materialized database agree on
  // every range, so scan operators can consume either interchangeably.
  TupleGenerator gen(summary_);
  auto db = MaterializeDatabase(summary_);
  ASSERT_TRUE(db.ok());
  Rng rng(13);
  for (int rel = 0; rel < env_.schema.num_relations(); ++rel) {
    const int64_t n = static_cast<int64_t>(gen.RowCount(rel));
    for (int trial = 0; trial < 4; ++trial) {
      const int64_t begin = rng.NextInt(0, n);
      const int64_t end = begin + rng.NextInt(0, n - begin + 1);
      std::vector<Row> from_gen, from_db;
      gen.ScanRange(rel, begin, end,
                    [&](const Row& r) { from_gen.push_back(r); });
      db->ScanRange(rel, begin, end,
                    [&](const Row& r) { from_db.push_back(r); });
      ASSERT_EQ(from_gen, from_db) << "relation " << rel;
    }
  }
}

}  // namespace
}  // namespace hydra
