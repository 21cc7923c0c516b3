// Unit tests for hydra/tuple_generator: dynamic generation, random access,
// materialization (memory + disk), projected fills over live columns, and
// filters selecting over generated blocks.

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/kernels.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "storage/disk_table.h"
#include "workload/toy.h"

namespace hydra {
namespace {

// A summary of one relation T(id PK, a, b) with `num_rows` summary rows of
// random values and counts in [0, 40): zero-count rows, one-row runs and
// long runs all occur.
DatabaseSummary RandomRunSummary(uint32_t seed, int num_rows) {
  std::mt19937 rng(seed);
  RelationSummary rs;
  rs.relation = 0;
  rs.attr_indices = {1, 2};
  int64_t rows = 0;
  for (int i = 0; i < num_rows; ++i) {
    const Value a = static_cast<Value>(rng() % 100);
    const Value b = static_cast<Value>(rng() % 50);
    const int64_t count = static_cast<int64_t>(rng() % 40);
    rs.rows.push_back({{a, b}, count});
    rows += count;
  }
  rs.Finalize();
  Relation t("T", static_cast<uint64_t>(rows));
  t.AddPrimaryKey("id");
  t.AddDataAttribute("a", Interval(0, 100));
  t.AddDataAttribute("b", Interval(0, 50));
  DatabaseSummary summary;
  summary.schema.AddRelation(std::move(t));
  summary.relations.push_back(std::move(rs));
  summary.extra_tuples = {0};
  return summary;
}

// A random DNF over T's columns (0 = id, 1 = a, 2 = b): 1-3 conjuncts of
// 1-3 atoms, some of them IN lists, some contradicted (empty), and id atoms
// only when `with_pk`.
DnfPredicate RandomDnf(std::mt19937* rng, bool with_pk, Value id_range) {
  DnfPredicate dnf;
  const int conjuncts = 1 + static_cast<int>((*rng)() % 3);
  for (int c = 0; c < conjuncts; ++c) {
    std::vector<Atom> atoms;
    const int num_atoms = 1 + static_cast<int>((*rng)() % 3);
    for (int a = 0; a < num_atoms; ++a) {
      const int column =
          with_pk ? static_cast<int>((*rng)() % 3)
                  : 1 + static_cast<int>((*rng)() % 2);
      const Value range = column == 0 ? id_range : column == 1 ? 100 : 50;
      const uint32_t kind = (*rng)() % 6;
      if (kind == 0) {
        atoms.push_back(Atom{column, IntervalSet{}});  // contradicted
      } else if (kind == 1) {
        std::vector<Value> values;
        for (int v = 0; v < 4; ++v) {
          values.push_back(static_cast<Value>((*rng)() % range));
        }
        atoms.push_back(AtomIn(column, values));
      } else {
        const Value lo = static_cast<Value>((*rng)() % range);
        const Value hi = lo + 1 + static_cast<Value>((*rng)() % range);
        atoms.push_back(AtomRange(column, lo, hi));
      }
    }
    dnf = dnf.Or(PredicateAllOf(std::move(atoms)));
  }
  return dnf;
}

class TupleGeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeToyEnvironment();
    HydraRegenerator hydra(env_.schema);
    auto result = hydra.Regenerate(env_.ccs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    summary_ = std::move(result->summary);
  }

  ToyEnvironment env_;
  DatabaseSummary summary_;
};

TEST_F(TupleGeneratorTest, RowCountsMatchSummary) {
  TupleGenerator gen(summary_);
  for (int r = 0; r < env_.schema.num_relations(); ++r) {
    EXPECT_EQ(gen.RowCount(r),
              static_cast<uint64_t>(summary_.relations[r].TotalCount()));
  }
}

TEST_F(TupleGeneratorTest, ScanEmitsSequentialPks) {
  TupleGenerator gen(summary_);
  const int s = env_.schema.RelationIndex("S");
  const int pk = env_.schema.relation(s).PrimaryKeyIndex();
  int64_t expected_pk = 0;
  gen.Scan(s, [&](const Row& row) {
    EXPECT_EQ(row[pk], expected_pk);
    ++expected_pk;
  });
  EXPECT_EQ(expected_pk, summary_.relations[s].TotalCount());
}

TEST_F(TupleGeneratorTest, GetTupleMatchesScan) {
  TupleGenerator gen(summary_);
  const int s = env_.schema.RelationIndex("S");
  std::vector<Row> scanned;
  gen.Scan(s, [&](const Row& row) { scanned.push_back(row); });
  Row out;
  for (int64_t i = 0; i < static_cast<int64_t>(scanned.size());
       i += std::max<int64_t>(1, scanned.size() / 37)) {
    gen.GetTuple(s, i, &out);
    EXPECT_EQ(out, scanned[i]) << "tuple " << i;
  }
  // Paper Section 6's example shape: random access at an arbitrary position.
  gen.GetTuple(s, 120 % scanned.size(), &out);
  EXPECT_EQ(out, scanned[120 % scanned.size()]);
}

TEST_F(TupleGeneratorTest, MaterializedDatabaseMatchesGenerator) {
  auto db = MaterializeDatabase(summary_);
  ASSERT_TRUE(db.ok());
  TupleGenerator gen(summary_);
  for (int r = 0; r < env_.schema.num_relations(); ++r) {
    ASSERT_EQ(db->RowCount(r), gen.RowCount(r));
    uint64_t i = 0;
    bool equal = true;
    gen.Scan(r, [&](const Row& row) {
      for (int c = 0; c < db->table(r).num_columns(); ++c) {
        if (db->table(r).At(i, c) != row[c]) equal = false;
      }
      ++i;
    });
    EXPECT_TRUE(equal) << "relation " << r;
  }
}

TEST_F(TupleGeneratorTest, MaterializedDatabaseHasReferentialIntegrity) {
  auto db = MaterializeDatabase(summary_);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->CheckReferentialIntegrity().ok());
}

TEST_F(TupleGeneratorTest, MaterializeToDiskRoundTrips) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hydra_tg_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto bytes = MaterializeToDisk(summary_, dir.string());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(*bytes, 0u);

  const int s = env_.schema.RelationIndex("S");
  auto table = ReadDiskTable((dir / "S.tbl").string());
  ASSERT_TRUE(table.ok());
  TupleGenerator gen(summary_);
  EXPECT_EQ(table->num_rows(), gen.RowCount(s));
  std::filesystem::remove_all(dir);
}

TEST_F(TupleGeneratorTest, ProjectedFillMatchesFullFillOnLiveColumns) {
  auto db = MaterializeDatabase(summary_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const TupleGenerator gen(summary_);
  const int s = env_.schema.RelationIndex("S");
  const Relation& rel = env_.schema.relation(s);
  const int width = rel.num_attributes();
  const int pk = rel.PrimaryKeyIndex();
  const int a = rel.AttrIndex("A");
  const int64_t total = static_cast<int64_t>(gen.RowCount(s));
  // The end of the first summary run, so ranges can start mid-run and
  // span run boundaries.
  const RelationSummary& rs = summary_.relations[s];
  const int64_t first_end =
      rs.prefix_counts[rs.RowIndexForTuple(0)] +
      rs.rows[rs.RowIndexForTuple(0)].count;
  ASSERT_GT(first_end, 2);
  ASSERT_LT(first_end, total) << "the toy S needs two summary runs";
  const int64_t mid = first_end / 2;
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, total},               // every run
      {mid, total - 1},         // mid-run start, run-spanning
      {mid, first_end + 1},     // mid-run start, one boundary
      {1, first_end - 1},       // inside one run
      {first_end, first_end},   // empty
  };
  std::vector<int> all(width);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<std::vector<int>> projections = {{}, {pk}, {a}, all};
  const std::vector<std::pair<const char*, const TableSource*>> sources = {
      {"generator", &gen}, {"database", &*db}};

  for (const auto& [name, source] : sources) {
    for (const auto& [begin, end] : ranges) {
      RowBlock full(width);
      source->FillBlockRange(s, begin, end, &full);
      ASSERT_EQ(full.num_rows(), end - begin) << name;
      std::vector<Row> want;
      source->ScanRange(s, begin, end,
                        [&](const Row& row) { want.push_back(row); });
      Row row(width);
      for (int64_t r = 0; r < full.num_rows(); ++r) {
        full.CopyRowTo(r, row.data());
        ASSERT_EQ(row, want[r]) << name << " rank " << begin + r;
      }
      for (const std::vector<int>& live : projections) {
        const std::string where = std::string(name) + " [" +
                                  std::to_string(begin) + ", " +
                                  std::to_string(end) + ") with " +
                                  std::to_string(live.size()) + " live";
        RowBlock projected(width);
        projected.SetLiveColumns(live);
        source->FillBlockRange(s, begin, end, &projected);
        ASSERT_EQ(projected.num_rows(), end - begin) << where;
        for (int c = 0; c < width; ++c) {
          EXPECT_EQ(projected.IsLive(c),
                    std::find(live.begin(), live.end(), c) != live.end());
        }
        for (const int c : live) {
          for (int64_t r = 0; r < full.num_rows(); ++r) {
            ASSERT_EQ(projected.At(r, c), full.At(r, c))
                << where << ", column " << c << ", row " << r;
          }
        }
      }
    }
  }
}

// The mask kernels select over generator blocks exactly the rows
// DnfPredicate::Eval passes: with PK atoms, whose column counts up inside
// a summary run, and over a projected fill that leaves the PK unfilled,
// whose oracle reads the same range filled whole.
TEST(GeneratorBlockSelectTest, SelectRangeAgreesWithRowOracle) {
  std::mt19937 rng(20261018);
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    const DatabaseSummary summary = RandomRunSummary(seed, 60);
    const TupleGenerator gen(summary);
    const int64_t total = static_cast<int64_t>(gen.RowCount(0));
    ASSERT_GT(total, 100);
    for (int trial = 0; trial < 40; ++trial) {
      const int64_t begin = static_cast<int64_t>(rng() % (total / 2));
      const int64_t end =
          begin + 1 + static_cast<int64_t>(rng() % (total - begin));
      RowBlock full(3);
      gen.FillBlockRange(0, begin, end, &full);
      RowBlock block(3);
      if (trial % 4 == 1) block.SetLiveColumns({1, 2});  // PK not filled
      gen.FillBlockRange(0, begin, end, &block);
      const bool with_pk = trial % 4 >= 2;
      for (const DnfPredicate& dnf :
           {RandomDnf(&rng, with_pk, total), DnfPredicate::True(),
            DnfPredicate()}) {
        SelVector oracle;
        Row row(3);
        for (int64_t r = 0; r < full.num_rows(); ++r) {
          full.CopyRowTo(r, row.data());
          if (dnf.Eval(row)) oracle.push_back(static_cast<int32_t>(r));
        }
        const kernels::BlockPredicate pred(dnf);
        SelVector sel;
        pred.SelectRange(block, 0, block.num_rows(), &sel);
        EXPECT_EQ(sel, oracle)
            << dnf.ToString() << " over [" << begin << ", " << end << ")";
      }
    }
  }
}

TEST_F(TupleGeneratorTest, DynamicSourceUsableByExecutor) {
  // The vendor engine runs the workload without any materialized data —
  // the paper's "datagen" mode.
  TupleGenerator gen(summary_);
  Executor ex(env_.schema);
  auto aqp = ex.Execute(env_.query, gen);
  ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();
  // Volumetric similarity on the toy CCs is exact or near-exact.
  ASSERT_EQ(aqp->steps.size(), 4u);
  EXPECT_EQ(aqp->steps[0].cardinality, 400u);    // σ_A(S)
  EXPECT_EQ(aqp->steps[1].cardinality, 900u);    // σ_C(T)
  EXPECT_EQ(aqp->steps[2].cardinality, 50000u);  // R⋈S
  EXPECT_EQ(aqp->steps[3].cardinality, 30000u);  // R⋈S⋈T
}

}  // namespace
}  // namespace hydra
