// Unit + property tests for engine/: tables, database, executor AQPs over
// client databases and over generated tuples.

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/table.h"
#include "hydra/tuple_generator.h"
#include "workload/datagen.h"
#include "workload/toy.h"

namespace hydra {
namespace {

TEST(TableTest, AppendAndAccess) {
  Table t(3);
  t.AppendRow({1, 2, 3});
  t.AppendRow({4, 5, 6});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0), 1);
  EXPECT_EQ(t.At(1, 2), 6);
  Row out;
  t.GetRow(1, &out);
  EXPECT_EQ(out, (Row{4, 5, 6}));
  EXPECT_EQ(t.ByteSize(), 6 * sizeof(Value));
}

TEST(TableTest, ColumnsHoldRowsAtTheirRank) {
  Table t(2);
  for (Value i = 0; i < 5; ++i) t.AppendRow({i, 10 * i});
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.Column(0)[r], static_cast<Value>(r));
    EXPECT_EQ(t.Column(1)[r], t.At(r, 1));
  }
}

TEST(TableTest, EqualityComparesWidthRowsAndValues) {
  Table a(2);
  a.AppendRow({1, 2});
  Table b(2);
  b.AppendRow({1, 2});
  EXPECT_EQ(a, b);
  b.AppendRow({3, 4});
  EXPECT_NE(a, b);  // row count
  a.AppendRow({3, 5});
  EXPECT_NE(a, b);  // one value
  EXPECT_NE(Table(2), Table(3));  // width
}

TEST(DatabaseTest, ScanVisitsAllRowsInOrder) {
  ToyEnvironment env = MakeToyEnvironment();
  Database db(env.schema);
  const int s = env.schema.RelationIndex("S");
  db.table(s).AppendRow({0, 10, 20});
  db.table(s).AppendRow({1, 11, 21});
  std::vector<Row> seen;
  db.Scan(s, [&](const Row& r) { seen.push_back(r); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (Row{0, 10, 20}));
  EXPECT_EQ(seen[1], (Row{1, 11, 21}));
  EXPECT_EQ(db.RowCount(s), 2u);
}

TEST(DatabaseTest, ScanRangeMatchesScanSlices) {
  ToyEnvironment env = MakeToyEnvironment();
  Database db(env.schema);
  const int s = env.schema.RelationIndex("S");
  for (int64_t i = 0; i < 10; ++i) db.table(s).AppendRow({i, 10 * i, -i});
  std::vector<Row> full;
  db.Scan(s, [&](const Row& r) { full.push_back(r); });
  for (int64_t begin = 0; begin <= 10; ++begin) {
    for (int64_t end = begin; end <= 10; ++end) {
      std::vector<Row> part;
      db.ScanRange(s, begin, end, [&](const Row& r) { part.push_back(r); });
      ASSERT_EQ(part.size(), static_cast<size_t>(end - begin));
      for (int64_t i = begin; i < end; ++i) {
        EXPECT_EQ(part[i - begin], full[i]);
      }
    }
  }
}

TEST(TableTest, ResizeRowsAndMutableColumn) {
  Table t(2);
  t.AppendRow({1, 2});
  t.ResizeRows(3);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.At(0, 1), 2);  // existing rows survive the resize
  for (uint64_t r = 1; r < 3; ++r) {
    t.MutableColumn(0)[r] = 7 * static_cast<Value>(r);
    t.MutableColumn(1)[r] = 8 * static_cast<Value>(r);
  }
  Row out;
  t.GetRow(2, &out);
  EXPECT_EQ(out, (Row{14, 16}));
  t.ResizeRows(1);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ByteSize(), 2 * sizeof(Value));
}

// Every [begin, end) of the relation, appended to a block that already
// holds one row, equals the ScanRange rows.
void ExpectFillBlockRangeMatchesScanRange(const Database& db, int relation) {
  const int64_t n = static_cast<int64_t>(db.RowCount(relation));
  const int width = db.schema().relation(relation).num_attributes();
  for (int64_t begin = 0; begin <= n; ++begin) {
    for (int64_t end = begin; end <= n; ++end) {
      RowBlock block(width);
      const Row sentinel(width, -1);
      block.ResizeUninitialized(1);
      for (int c = 0; c < width; ++c) block.MutableColumn(c)[0] = sentinel[c];
      db.FillBlockRange(relation, begin, end, &block);
      std::vector<Row> rows;
      db.ScanRange(relation, begin, end,
                   [&](const Row& r) { rows.push_back(r); });
      ASSERT_EQ(block.num_rows(), 1 + end - begin);
      Row got(width);
      block.CopyRowTo(0, got.data());
      ASSERT_EQ(got, sentinel);
      for (int64_t i = 0; i < end - begin; ++i) {
        block.CopyRowTo(1 + i, got.data());
        ASSERT_EQ(got, rows[i]) << begin << ".." << end << " rank " << i;
      }
    }
  }
}

TEST(DatabaseTest, FillBlockRangeMatchesScanRange) {
  ToyEnvironment env = MakeToyEnvironment();
  Database db(env.schema);
  const int s = env.schema.RelationIndex("S");
  for (Value i = 0; i < 6; ++i) db.table(s).AppendRow({i, 10 * i, -i});
  ExpectFillBlockRangeMatchesScanRange(db, s);
  // Rows appended after the first scans are visible to the next ones.
  for (Value i = 6; i < 11; ++i) db.table(s).AppendRow({i, 10 * i, -i});
  ExpectFillBlockRangeMatchesScanRange(db, s);
  RowBlock tail(3);
  db.FillBlockRange(s, 10, 11, &tail);
  EXPECT_EQ(tail.At(0, 1), 100);
}

TEST(DatabaseTest, ReferentialIntegrityDetectsDangling) {
  ToyEnvironment env = MakeToyEnvironment();
  Database db(env.schema);
  const int s = env.schema.RelationIndex("S");
  const int t = env.schema.RelationIndex("T");
  const int r = env.schema.RelationIndex("R");
  db.table(s).AppendRow({0, 1, 2});
  db.table(t).AppendRow({0, 3});
  db.table(r).AppendRow({0, 0, 0});
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());
  db.table(r).AppendRow({1, 5, 0});  // S_fk = 5 dangling
  EXPECT_FALSE(db.CheckReferentialIntegrity().ok());
}

// --- Executor ------------------------------------------------------------

class ToyExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeToyEnvironment();
    auto db = GenerateClientDatabase(env_.schema, DataGenOptions{.seed = 11});
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<Database>(std::move(*db));
  }

  ToyEnvironment env_;
  std::unique_ptr<Database> db_;
};

TEST_F(ToyExecutorTest, PlanShapeMatchesQuery) {
  Executor ex(env_.schema);
  auto aqp = ex.Execute(env_.query, *db_);
  ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();
  // Two filtered tables + two joins = 4 annotated steps.
  ASSERT_EQ(aqp->steps.size(), 4u);
  EXPECT_EQ(aqp->steps[0].relations.size(), 1u);
  EXPECT_EQ(aqp->steps[1].relations.size(), 1u);
  EXPECT_EQ(aqp->steps[2].relations.size(), 2u);
  EXPECT_EQ(aqp->steps[3].relations.size(), 3u);
  EXPECT_EQ(aqp->steps[3].joins.size(), 2u);
}

TEST_F(ToyExecutorTest, FilterCardinalityMatchesBruteForce) {
  Executor ex(env_.schema);
  auto aqp = ex.Execute(env_.query, *db_);
  ASSERT_TRUE(aqp.ok());
  // Count σ_{A∈[20,60)}(S) by hand.
  const int s = env_.schema.RelationIndex("S");
  const int a = env_.schema.relation(s).AttrIndex("A");
  uint64_t expected = 0;
  db_->Scan(s, [&](const Row& r) {
    if (r[a] >= 20 && r[a] < 60) ++expected;
  });
  EXPECT_EQ(aqp->steps[0].cardinality, expected);
}

TEST_F(ToyExecutorTest, JoinCardinalityMatchesBruteForce) {
  Executor ex(env_.schema);
  auto aqp = ex.Execute(env_.query, *db_);
  ASSERT_TRUE(aqp.ok());
  // |σ_A(R ⋈ S)|: R rows whose S_fk lands in a filtered S row.
  const int s = env_.schema.RelationIndex("S");
  const int r = env_.schema.RelationIndex("R");
  const int a = env_.schema.relation(s).AttrIndex("A");
  const int sfk = env_.schema.relation(r).AttrIndex("S_fk");
  std::set<Value> s_keys;
  db_->Scan(s, [&](const Row& row) {
    if (row[a] >= 20 && row[a] < 60) s_keys.insert(row[0]);
  });
  uint64_t expected = 0;
  db_->Scan(r, [&](const Row& row) {
    if (s_keys.count(row[sfk])) ++expected;
  });
  EXPECT_EQ(aqp->steps[2].cardinality, expected);
}

TEST_F(ToyExecutorTest, AqpToConstraintsPreservesEverything) {
  Executor ex(env_.schema);
  auto aqp = ex.Execute(env_.query, *db_);
  ASSERT_TRUE(aqp.ok());
  const auto ccs = AqpToConstraints(*aqp);
  ASSERT_EQ(ccs.size(), aqp->steps.size());
  for (size_t i = 0; i < ccs.size(); ++i) {
    EXPECT_EQ(ccs[i].cardinality, aqp->steps[i].cardinality);
    EXPECT_EQ(ccs[i].relations, aqp->steps[i].relations);
    EXPECT_EQ(ccs[i].label, aqp->steps[i].label);
  }
  // The final CC's root must be R (the FK source).
  EXPECT_EQ(ccs.back().RootRelation(), env_.schema.RelationIndex("R"));
}

TEST_F(ToyExecutorTest, RejectsSelfJoin) {
  Query q;
  q.name = "self";
  const int s = env_.schema.RelationIndex("S");
  q.tables.push_back(QueryTable{s, DnfPredicate::True()});
  q.tables.push_back(QueryTable{s, DnfPredicate::True()});
  // There is no FK S->S, so Validate already rejects; build a join that
  // passes arity checks only.
  q.joins.push_back(JoinEdge{0, 0, 1});
  Executor ex(env_.schema);
  EXPECT_FALSE(ex.Execute(q, *db_).ok());
}

TEST_F(ToyExecutorTest, RejectsFilterOnKeyAttribute) {
  Query q;
  q.name = "keyfilter";
  const int s = env_.schema.RelationIndex("S");
  q.tables.push_back(QueryTable{s, PredicateOf(AtomLess(0, 10))});  // S_pk
  Executor ex(env_.schema);
  EXPECT_FALSE(ex.Execute(q, *db_).ok());
}

TEST(ExecutorTest, DnfFilterCounted) {
  ToyEnvironment env = MakeToyEnvironment();
  auto db = GenerateClientDatabase(env.schema, DataGenOptions{.seed = 3});
  ASSERT_TRUE(db.ok());
  const int s = env.schema.RelationIndex("S");
  const int a = env.schema.relation(s).AttrIndex("A");
  const int b = env.schema.relation(s).AttrIndex("B");
  Query q;
  q.name = "dnf";
  DnfPredicate p =
      PredicateAllOf({AtomRange(a, 0, 30), AtomRange(b, 10, 40)})
          .Or(PredicateOf(AtomGreaterEqual(a, 80)));
  q.tables.push_back(QueryTable{s, p});
  Executor ex(env.schema);
  auto aqp = ex.Execute(q, *db);
  ASSERT_TRUE(aqp.ok());
  uint64_t expected = 0;
  db->Scan(s, [&](const Row& row) {
    if ((row[a] >= 0 && row[a] < 30 && row[b] >= 10 && row[b] < 40) ||
        row[a] >= 80) {
      ++expected;
    }
  });
  ASSERT_EQ(aqp->steps.size(), 1u);
  EXPECT_EQ(aqp->steps[0].cardinality, expected);
}

TEST(ExecutorTest, FkSideExpansionJoin) {
  // Join where the new table is the FK side: S first, then R (R references
  // S). Every filtered S row can match many R rows.
  ToyEnvironment env = MakeToyEnvironment();
  auto db = GenerateClientDatabase(env.schema, DataGenOptions{.seed = 5});
  ASSERT_TRUE(db.ok());
  const int s = env.schema.RelationIndex("S");
  const int r = env.schema.RelationIndex("R");
  const int a = env.schema.relation(s).AttrIndex("A");
  const int sfk = env.schema.relation(r).AttrIndex("S_fk");

  Query q;
  q.name = "fk_expand";
  q.tables.push_back(QueryTable{s, PredicateOf(AtomLess(a, 50))});
  q.tables.push_back(QueryTable{r, DnfPredicate::True()});
  q.joins.push_back(JoinEdge{1, sfk, 0});  // fk side is table 1 (new)

  Executor ex(env.schema);
  auto aqp = ex.Execute(q, *db);
  ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();

  std::set<Value> keys;
  db->Scan(s, [&](const Row& row) {
    if (row[a] < 50) keys.insert(row[0]);
  });
  uint64_t expected = 0;
  db->Scan(r, [&](const Row& row) {
    if (keys.count(row[sfk])) ++expected;
  });
  EXPECT_EQ(aqp->steps.back().cardinality, expected);
}

// A snowflake for shapes the TPC-DS generator never produces: F references
// D1 and D3, D1 references D2.
struct SnowflakeEnvironment {
  Schema schema;
  int f, d1, d2, d3;    // relations
  int f_d1, f_d3, f_x;  // F attributes
  int d1_d2, d1_y;      // D1 attributes
  int d2_z, d3_w;       // D2 / D3 attributes
};

SnowflakeEnvironment MakeSnowflake() {
  SnowflakeEnvironment env;
  Relation d2("D2", 30);
  d2.AddPrimaryKey("D2_pk");
  env.d2_z = d2.AddDataAttribute("Z", Interval(0, 10));
  env.d2 = env.schema.AddRelation(std::move(d2));
  Relation d1("D1", 60);
  d1.AddPrimaryKey("D1_pk");
  env.d1_d2 = d1.AddForeignKey("D2_fk", env.d2);
  env.d1_y = d1.AddDataAttribute("Y", Interval(0, 20));
  env.d1 = env.schema.AddRelation(std::move(d1));
  Relation d3("D3", 25);
  d3.AddPrimaryKey("D3_pk");
  env.d3_w = d3.AddDataAttribute("W", Interval(0, 8));
  env.d3 = env.schema.AddRelation(std::move(d3));
  Relation f("F", 400);
  f.AddPrimaryKey("F_pk");
  env.f_d1 = f.AddForeignKey("D1_fk", env.d1);
  env.f_d3 = f.AddForeignKey("D3_fk", env.d3);
  env.f_x = f.AddDataAttribute("X", Interval(0, 50));
  env.f = env.schema.AddRelation(std::move(f));
  return env;
}

// Brute-force AQP cardinalities: one per filtered table in table order, then
// one per join prefix, counted by enumerating every joined tuple of
// filtered rows.
std::vector<uint64_t> OracleCardinalities(const Schema& schema,
                                          const Database& db,
                                          const Query& query) {
  const int num_tables = static_cast<int>(query.tables.size());
  std::vector<std::vector<Row>> rows(num_tables);
  std::vector<uint64_t> out;
  for (int t = 0; t < num_tables; ++t) {
    const QueryTable& qt = query.tables[t];
    db.Scan(qt.relation, [&](const Row& row) {
      if (qt.filter.Eval(row)) rows[t].push_back(row);
    });
    if (!qt.filter.IsTrue()) out.push_back(rows[t].size());
  }
  std::vector<std::vector<size_t>> tuples;  // a row index per joined table
  for (size_t r = 0; r < rows[0].size(); ++r) tuples.push_back({r});
  for (int j = 0; j + 1 < num_tables; ++j) {
    const JoinEdge& e = query.joins[j];
    const int new_t = j + 1;
    const int pk_attr =
        schema.relation(query.tables[e.pk_table].relation).PrimaryKeyIndex();
    std::vector<std::vector<size_t>> next;
    for (const std::vector<size_t>& tuple : tuples) {
      for (size_t r = 0; r < rows[new_t].size(); ++r) {
        const auto row_of = [&](int t) -> const Row& {
          return t == new_t ? rows[t][r] : rows[t][tuple[t]];
        };
        if (row_of(e.fk_table)[e.fk_attr] == row_of(e.pk_table)[pk_attr]) {
          next.push_back(tuple);
          next.back().push_back(r);
        }
      }
    }
    tuples = std::move(next);
    out.push_back(tuples.size());
  }
  return out;
}

// Executes `query` over `source` at {1, 2, 8} threads × {1, 3, 4096}-row
// morsels and checks every step against the oracle over `db`, which holds
// the rows `source` serves.
void ExpectMatchesOracle(const Schema& schema, const TableSource& source,
                         const Database& db, const Query& query) {
  const std::vector<uint64_t> want = OracleCardinalities(schema, db, query);
  for (const int threads : {1, 2, 8}) {
    for (const int64_t morsel_rows : {1, 3, 4096}) {
      Executor ex(schema, ExecOptions{threads, morsel_rows});
      auto aqp = ex.Execute(query, source);
      ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();
      std::vector<uint64_t> got;
      for (const AqpStep& step : aqp->steps) got.push_back(step.cardinality);
      EXPECT_EQ(got, want) << threads << " threads, " << morsel_rows;
    }
  }
}

// The same over a TupleGenerator of `summary`, whose root blocks carry
// summary runs, against the oracle over the database materialized from it.
void ExpectGeneratedMatchesOracle(const DatabaseSummary& summary,
                                  const Query& query) {
  auto db = MaterializeDatabase(summary);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const TupleGenerator gen(summary);
  ExpectMatchesOracle(summary.schema, gen, *db, query);
}

// A hand-built summary of `schema` whose runs sit every way against the
// {1, 3, 4096}-row morsels. Each relation gets summary rows of 1–5 tuples
// up to its schema row count: shorter than, as long as and straddling a
// 3-row morsel. `long_relation` also gets one run of 4,097–4,196 tuples at
// a random position, longer than a 4,096-row morsel and straddling its
// boundary. Foreign keys draw from their target's ranks and data
// attributes from their domains.
DatabaseSummary RunsSummary(const Schema& schema, uint64_t seed,
                            int long_relation) {
  Rng rng(seed);
  const int num_relations = schema.num_relations();
  std::vector<std::vector<int64_t>> lengths(num_relations);
  for (int r = 0; r < num_relations; ++r) {
    const int64_t target = static_cast<int64_t>(schema.relation(r).row_count());
    for (int64_t rows = 0; rows < target;) {
      lengths[r].push_back(rng.NextInt(1, 6));
      rows += lengths[r].back();
    }
    if (r == long_relation) {
      const size_t at = rng.NextBounded(lengths[r].size() + 1);
      lengths[r].insert(lengths[r].begin() + at, rng.NextInt(4097, 4197));
    }
  }
  DatabaseSummary summary;
  summary.schema = schema;
  for (int r = 0; r < num_relations; ++r) {
    int64_t total = 0;
    for (const int64_t len : lengths[r]) total += len;
    summary.schema.mutable_relation(r).set_row_count(total);
  }
  for (int r = 0; r < num_relations; ++r) {
    const Relation& rel = summary.schema.relation(r);
    RelationSummary rs;
    rs.relation = r;
    for (int a = 0; a < rel.num_attributes(); ++a) {
      if (a != rel.PrimaryKeyIndex()) rs.attr_indices.push_back(a);
    }
    for (const int64_t len : lengths[r]) {
      SolutionRow row;
      row.count = len;
      for (const int a : rs.attr_indices) {
        const Attribute& attr = rel.attribute(a);
        Interval domain = attr.domain;
        if (attr.kind == AttributeKind::kForeignKey) {
          const Relation& target = summary.schema.relation(attr.fk_target);
          domain = Interval(0, static_cast<int64_t>(target.row_count()));
        }
        row.values.push_back(rng.NextInt(domain.lo, domain.hi));
      }
      rs.rows.push_back(std::move(row));
    }
    rs.Finalize();
    summary.relations.push_back(std::move(rs));
  }
  summary.extra_tuples.assign(num_relations, 0);
  return summary;
}

// Property sweep: executing the toy query and the snowflake shapes on
// databases generated with many seeds, and over tuples generated from
// summaries built with the same seeds, always produces join cardinalities
// that match a brute-force join. Over generated tuples a root whose chain
// reads no PK joins per summary run (the F- and R-rooted shapes); one whose
// PK is probed joins per row (the D1- and D2-rooted ones).
class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Checks `query` over the snowflake's client database and over a
  // generator of its runs summary, both for this test's seed.
  void ExpectSnowflakeMatchesOracle(const Query& query) const {
    const DataGenOptions options{.seed = GetParam()};
    auto db = GenerateClientDatabase(snowflake_.schema, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ExpectMatchesOracle(snowflake_.schema, *db, *db, query);
    ExpectGeneratedMatchesOracle(
        RunsSummary(snowflake_.schema, GetParam(), snowflake_.f), query);
  }

  const SnowflakeEnvironment snowflake_ = MakeSnowflake();
};

TEST_P(ExecutorPropertyTest, ThreeWayJoinMatchesBruteForce) {
  ToyEnvironment env = MakeToyEnvironment();
  // Shrink for speed.
  env.schema.mutable_relation(env.schema.RelationIndex("R"))
      .set_row_count(2000);
  env.schema.mutable_relation(env.schema.RelationIndex("S"))
      .set_row_count(100);
  env.schema.mutable_relation(env.schema.RelationIndex("T"))
      .set_row_count(80);
  auto db =
      GenerateClientDatabase(env.schema, DataGenOptions{.seed = GetParam()});
  ASSERT_TRUE(db.ok());
  Executor ex(env.schema);
  auto aqp = ex.Execute(env.query, *db);
  ASSERT_TRUE(aqp.ok());

  const Schema& schema = env.schema;
  const int s = schema.RelationIndex("S"), t = schema.RelationIndex("T"),
            r = schema.RelationIndex("R");
  const int a = schema.relation(s).AttrIndex("A");
  const int c = schema.relation(t).AttrIndex("C");
  const int sfk = schema.relation(r).AttrIndex("S_fk");
  const int tfk = schema.relation(r).AttrIndex("T_fk");
  std::set<Value> s_keys, t_keys;
  db->Scan(s, [&](const Row& row) {
    if (row[a] >= 20 && row[a] < 60) s_keys.insert(row[0]);
  });
  db->Scan(t, [&](const Row& row) {
    if (row[c] >= 2 && row[c] < 3) t_keys.insert(row[0]);
  });
  uint64_t expected = 0;
  db->Scan(r, [&](const Row& row) {
    if (s_keys.count(row[sfk]) && t_keys.count(row[tfk])) ++expected;
  });
  EXPECT_EQ(aqp->steps.back().cardinality, expected);
  ExpectGeneratedMatchesOracle(RunsSummary(schema, GetParam(), r), env.query);
}

TEST_P(ExecutorPropertyTest, FkSideJoinThenPkSideJoinKeyedOnIt) {
  // D1 ⋈ F expands (F is the FK side); D3 is then probed with F.D3_fk, a
  // key carried by the expanded rows; D2 with the root's D2_fk.
  const SnowflakeEnvironment& e = snowflake_;
  Query q;
  q.name = "expand_then_pk";
  q.tables.push_back(QueryTable{e.d1, PredicateOf(AtomLess(e.d1_y, 12))});
  q.tables.push_back(QueryTable{e.f, PredicateOf(AtomLess(e.f_x, 35))});
  q.tables.push_back(QueryTable{e.d3, PredicateOf(AtomLess(e.d3_w, 5))});
  q.tables.push_back(QueryTable{e.d2, DnfPredicate::True()});
  q.joins.push_back(JoinEdge{1, e.f_d1, 0});
  q.joins.push_back(JoinEdge{1, e.f_d3, 2});
  q.joins.push_back(JoinEdge{0, e.d1_d2, 3});
  ExpectSnowflakeMatchesOracle(q);
}

TEST_P(ExecutorPropertyTest, ChainedFkSideJoins) {
  // D2 ⋈ D1 ⋈ F: two expanding joins, the second probed with a non-root
  // PK, then a PK-side join keyed on the last expanded table.
  const SnowflakeEnvironment& e = snowflake_;
  Query q;
  q.name = "double_expand";
  q.tables.push_back(QueryTable{e.d2, PredicateOf(AtomLess(e.d2_z, 6))});
  q.tables.push_back(QueryTable{e.d1, DnfPredicate::True()});
  q.tables.push_back(QueryTable{e.f, PredicateOf(AtomLess(e.f_x, 40))});
  q.tables.push_back(QueryTable{e.d3, DnfPredicate::True()});
  q.joins.push_back(JoinEdge{1, e.d1_d2, 0});
  q.joins.push_back(JoinEdge{2, e.f_d1, 1});
  q.joins.push_back(JoinEdge{2, e.f_d3, 3});
  ExpectSnowflakeMatchesOracle(q);
}

TEST_P(ExecutorPropertyTest, SnowflakeProbeKeyOnNonRootTable) {
  // F ⋈ D1 ⋈ D2: D2 is probed with D1.D2_fk; D3 then needs the root's
  // row ids carried past both.
  const SnowflakeEnvironment& e = snowflake_;
  Query q;
  q.name = "snowflake";
  q.tables.push_back(QueryTable{e.f, PredicateOf(AtomLess(e.f_x, 30))});
  q.tables.push_back(QueryTable{e.d1, PredicateOf(AtomLess(e.d1_y, 15))});
  q.tables.push_back(QueryTable{e.d2, PredicateOf(AtomLess(e.d2_z, 7))});
  q.tables.push_back(QueryTable{e.d3, DnfPredicate::True()});
  q.joins.push_back(JoinEdge{0, e.f_d1, 1});
  q.joins.push_back(JoinEdge{1, e.d1_d2, 2});
  q.joins.push_back(JoinEdge{0, e.f_d3, 3});
  ExpectSnowflakeMatchesOracle(q);
}

TEST_P(ExecutorPropertyTest, FilteredDimensionKeepsNoRows) {
  const SnowflakeEnvironment& e = snowflake_;
  Query q;
  q.name = "empty_dimension";
  q.tables.push_back(QueryTable{e.f, PredicateOf(AtomLess(e.f_x, 30))});
  q.tables.push_back(
      QueryTable{e.d1, PredicateOf(AtomRange(e.d1_y, 100, 200))});
  q.tables.push_back(QueryTable{e.d3, DnfPredicate::True()});
  q.joins.push_back(JoinEdge{0, e.f_d1, 1});
  q.joins.push_back(JoinEdge{0, e.f_d3, 2});
  ExpectSnowflakeMatchesOracle(q);
}

TEST_P(ExecutorPropertyTest, RootFilterKeepsNoRows) {
  const SnowflakeEnvironment& e = snowflake_;
  Query q;
  q.name = "empty_root";
  q.tables.push_back(
      QueryTable{e.f, PredicateOf(AtomRange(e.f_x, 1000, 2000))});
  q.tables.push_back(QueryTable{e.d1, PredicateOf(AtomLess(e.d1_y, 15))});
  q.tables.push_back(QueryTable{e.d2, DnfPredicate::True()});
  q.joins.push_back(JoinEdge{0, e.f_d1, 1});
  q.joins.push_back(JoinEdge{1, e.d1_d2, 2});
  ExpectSnowflakeMatchesOracle(q);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

// A summary of `schema` built by hand: rows[r] are relation r's summary
// rows, each holding a value for every non-PK attribute in attribute
// order. The schema's row counts become the summary's.
DatabaseSummary HandSummary(const Schema& schema,
                            std::vector<std::vector<SolutionRow>> rows) {
  DatabaseSummary summary;
  summary.schema = schema;
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    RelationSummary rs;
    rs.relation = r;
    for (int a = 0; a < rel.num_attributes(); ++a) {
      if (a != rel.PrimaryKeyIndex()) rs.attr_indices.push_back(a);
    }
    rs.rows = std::move(rows[r]);
    rs.Finalize();
    summary.schema.mutable_relation(r).set_row_count(
        static_cast<uint64_t>(rs.TotalCount()));
    summary.relations.push_back(std::move(rs));
  }
  summary.extra_tuples.assign(schema.num_relations(), 0);
  return summary;
}

TEST(ExecutorTest, CountsJoinIndexLayouts) {
  // Over the database, S keys are ranks (dense); T's two keys lie 10^6
  // apart, wider than max(8 × 2 rows, 2 scanned rows) (hashed). Over a
  // generator both builds key on their PK and read its run heads (runs).
  ToyEnvironment env = MakeToyEnvironment();
  Database db(env.schema);
  const int r = env.schema.RelationIndex("R");
  const int s = env.schema.RelationIndex("S");
  const int t = env.schema.RelationIndex("T");
  const int sfk = env.schema.relation(r).AttrIndex("S_fk");
  const int tfk = env.schema.relation(r).AttrIndex("T_fk");
  for (Value k = 0; k < 10; ++k) db.table(s).AppendRow({k, k, k});
  db.table(t).AppendRow({0, 1});
  db.table(t).AppendRow({1000000, 2});
  for (Value k = 0; k < 20; ++k) {
    db.table(r).AppendRow({k, k % 10, k % 2 == 0 ? 0 : 1000000});
  }
  Query q;
  q.name = "layouts";
  q.tables = {QueryTable{r}, QueryTable{s}, QueryTable{t}};
  q.joins = {JoinEdge{0, sfk, 1}, JoinEdge{0, tfk, 2}};

  const Counter* dense = MetricRegistry::FindCounter("engine/join_index_dense");
  const Counter* hashed =
      MetricRegistry::FindCounter("engine/join_index_hashed");
  const Counter* runs = MetricRegistry::FindCounter("engine/join_index_runs");
  ASSERT_NE(dense, nullptr);
  ASSERT_NE(hashed, nullptr);
  ASSERT_NE(runs, nullptr);
  // Per source: the builds each layout counted over one Execute.
  const auto layouts = [&](const TableSource& source) {
    const uint64_t dense_before = dense->value();
    const uint64_t hashed_before = hashed->value();
    const uint64_t runs_before = runs->value();
    auto aqp = Executor(env.schema).Execute(q, source);
    EXPECT_TRUE(aqp.ok()) << aqp.status().ToString();
    if (aqp.ok()) {
      EXPECT_EQ(aqp->steps.back().cardinality, 20u);
    }
    return std::vector<uint64_t>{dense->value() - dense_before,
                                 hashed->value() - hashed_before,
                                 runs->value() - runs_before};
  };
  EXPECT_EQ(layouts(db), (std::vector<uint64_t>{1, 1, 0}));

  // S: 10 rows in 2 runs, T: 2 rows in 2 runs, R: 20 rows whose FKs point
  // at run heads and off them.
  const DatabaseSummary summary = HandSummary(
      env.schema, {{{{1, 1}, 4}, {{2, 2}, 6}},
                   {{{1}, 1}, {{2}, 1}},
                   {{{0, 0}, 5}, {{3, 1}, 5}, {{9, 1}, 10}}});
  const TupleGenerator gen(summary);
  EXPECT_EQ(layouts(gen), (std::vector<uint64_t>{0, 0, 2}));
}

// One F run is 3 × 2^32 + 5 rows long, one D run 2^33 + 5, and every count
// but one passes 2^32, so a root or non-root weight, a filter count, a run
// length or a join count cut to 32 bits reads wrong. The counts are known
// in closed form. F's FKs point into D's first run, at the head of its
// second run and past 2^32 ranks into it.
TEST(ExecutorTest, RunWeightsAndCountsPass32Bits) {
  Schema schema;
  Relation d("D", 0);
  d.AddPrimaryKey("D_pk");
  const int x = d.AddDataAttribute("X", Interval(0, 10));
  const int d_rel = schema.AddRelation(std::move(d));
  Relation f("F", 0);
  f.AddPrimaryKey("F_pk");
  const int fk = f.AddForeignKey("D_fk", d_rel);
  const int y = f.AddDataAttribute("Y", Interval(0, 10));
  const int f_rel = schema.AddRelation(std::move(f));
  constexpr int64_t k2To32 = int64_t{1} << 32;
  // D: ranks 0-2 hold X = 1, the 2^33 + 5 ranks from 3 on hold X = 2.
  const DatabaseSummary summary =
      HandSummary(schema, {{{{1}, 3}, {{2}, 2 * k2To32 + 5}},
                           {{{0, 1}, 3 * k2To32 + 5},
                            {{3, 1}, 2 * k2To32 + 7},
                            {{k2To32 + 7, 1}, k2To32 + 11},
                            {{2, 2}, 13}}});
  const TupleGenerator gen(summary);
  ASSERT_EQ(gen.RowCount(f_rel), static_cast<uint64_t>(6 * k2To32 + 36));

  Query filtered;
  filtered.name = "filtered";
  filtered.tables = {QueryTable{f_rel, PredicateOf(AtomRange(y, 1, 2))},
                     QueryTable{d_rel, PredicateOf(AtomRange(x, 2, 3))}};
  filtered.joins = {JoinEdge{0, fk, 1}};
  Query unfiltered = filtered;
  unfiltered.name = "unfiltered";
  for (QueryTable& table : unfiltered.tables) {
    table.filter = DnfPredicate::True();
  }
  for (const int64_t morsel_rows : {1, 4096}) {
    const Executor executor(schema, ExecOptions{1, morsel_rows});
    auto aqp = executor.Execute(filtered, gen);
    ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();
    std::vector<uint64_t> got;
    for (const AqpStep& step : aqp->steps) got.push_back(step.cardinality);
    // σ(F), σ(D), σ(F) ⋈ σ(D).
    EXPECT_EQ(got, (std::vector<uint64_t>{
                       static_cast<uint64_t>(6 * k2To32 + 23),
                       static_cast<uint64_t>(2 * k2To32 + 5),
                       static_cast<uint64_t>(3 * k2To32 + 18)}))
        << morsel_rows;
    aqp = executor.Execute(unfiltered, gen);
    ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();
    ASSERT_EQ(aqp->steps.size(), 1u);
    EXPECT_EQ(aqp->steps[0].cardinality,
              static_cast<uint64_t>(6 * k2To32 + 36))
        << morsel_rows;
  }
}

}  // namespace
}  // namespace hydra
