// Tests for engine/operators: batch-vectorized operators over materialized
// and dynamically generated sources, including the row-at-a-time Next()
// shim kept at the root.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "engine/operators.h"
#include "hydra/regenerator.h"
#include "workload/toy.h"

namespace hydra {
namespace {

Table MakeTable(std::vector<Row> rows, int cols) {
  Table t(cols);
  for (const Row& r : rows) t.AppendRow(r);
  return t;
}

TEST(TableScanOpTest, EmitsAllRowsInOrder) {
  Table t = MakeTable({{1, 2}, {3, 4}, {5, 6}}, 2);
  TableScanOp scan(&t);
  scan.Open();
  Row row;
  ASSERT_TRUE(scan.Next(&row));
  EXPECT_EQ(row, (Row{1, 2}));
  ASSERT_TRUE(scan.Next(&row));
  ASSERT_TRUE(scan.Next(&row));
  EXPECT_EQ(row, (Row{5, 6}));
  EXPECT_FALSE(scan.Next(&row));
}

TEST(TableScanOpTest, ReopenRestarts) {
  Table t = MakeTable({{7}}, 1);
  TableScanOp scan(&t);
  EXPECT_EQ(CountRows(&scan), 1u);
  EXPECT_EQ(CountRows(&scan), 1u);
}

TEST(FilterOpTest, KeepsMatchingRows) {
  Table t = MakeTable({{1}, {5}, {9}, {3}}, 1);
  FilterOp filter(std::make_unique<TableScanOp>(&t),
                  PredicateOf(AtomGreaterEqual(0, 4)));
  filter.Open();
  Row row;
  ASSERT_TRUE(filter.Next(&row));
  EXPECT_EQ(row[0], 5);
  ASSERT_TRUE(filter.Next(&row));
  EXPECT_EQ(row[0], 9);
  EXPECT_FALSE(filter.Next(&row));
}

TEST(ProjectOpTest, ReordersColumns) {
  Table t = MakeTable({{1, 2, 3}}, 3);
  ProjectOp project(std::make_unique<TableScanOp>(&t), {2, 0});
  project.Open();
  Row row;
  ASSERT_TRUE(project.Next(&row));
  EXPECT_EQ(row, (Row{3, 1}));
  EXPECT_EQ(project.num_columns(), 2);
}

TEST(HashJoinOpTest, JoinsOnKeysWithDuplicates) {
  // probe(key, x) ⋈ build(key, y).
  Table probe = MakeTable({{1, 10}, {2, 20}, {1, 30}, {9, 90}}, 2);
  Table build = MakeTable({{1, 100}, {2, 200}, {1, 101}}, 2);
  HashJoinOp join(std::make_unique<TableScanOp>(&probe), 0,
                  std::make_unique<TableScanOp>(&build), 0);
  join.Open();
  Row row;
  std::multiset<std::vector<Value>> results;
  while (join.Next(&row)) results.insert(row);
  // probe key 1 matches two build rows, twice; key 2 once; key 9 none.
  EXPECT_EQ(results.size(), 5u);
  EXPECT_TRUE(results.count(Row{1, 10, 1, 100}));
  EXPECT_TRUE(results.count(Row{1, 30, 1, 101}));
  EXPECT_TRUE(results.count(Row{2, 20, 2, 200}));
}

TEST(HashJoinOpTest, EmptyBuildSideYieldsNothing) {
  Table probe = MakeTable({{1}}, 1);
  Table build(1);
  HashJoinOp join(std::make_unique<TableScanOp>(&probe), 0,
                  std::make_unique<TableScanOp>(&build), 0);
  EXPECT_EQ(CountRows(&join), 0u);
}

// --- JoinIndex -------------------------------------------------------------

using Layout = JoinIndex::Layout;

// The build row ids `index` holds for `key`, in span order.
std::vector<uint32_t> RowsOf(const JoinIndex& index, Value key) {
  JoinIndex::Span span;
  index.Probe(&key, 1, &span);
  const uint32_t* ids = index.row_ids() + span.begin;
  return std::vector<uint32_t>(ids, ids + span.len);
}

// Builds an index over `keys` and checks its layout, and that every probe
// returns exactly the rows holding that key, in build order.
void ExpectIndex(const std::vector<Value>& keys, int64_t scanned_rows,
                 ExecContext* ctx, Layout layout,
                 const std::vector<Value>& probes) {
  const int64_t n = static_cast<int64_t>(keys.size());
  JoinIndex index;
  index.Build(keys.data(), n, scanned_rows, ctx);
  EXPECT_EQ(index.layout(), layout);
  for (const Value probe : probes) {
    std::vector<uint32_t> want;
    for (int64_t r = 0; r < n; ++r) {
      if (keys[r] == probe) want.push_back(static_cast<uint32_t>(r));
    }
    EXPECT_EQ(RowsOf(index, probe), want) << "key " << probe;
  }
}

// Moves a small value 2^33 times further from zero: spread keys keep their
// duplicates, signs and build order, but their range exceeds every dense
// limit. Values beyond ±2^29 (INT64_MIN/MAX probes) stay put.
Value Spread(Value v) {
  constexpr Value kSmall = Value{1} << 29;
  return v > -kSmall && v < kSmall ? v * (Value{1} << 33) : v;
}

// Checks the dense layout over `keys` (scanned rows = their range), then
// the hashed layout — sequential and partitioned across a pool — over the
// same keys spread apart.
void ExpectLayoutsAgree(const std::vector<Value>& keys,
                        const std::vector<Value>& probes) {
  ASSERT_FALSE(keys.empty());
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  ExpectIndex(keys, *hi - *lo + 1, nullptr, Layout::kDense, probes);
  std::vector<Value> spread_keys(keys.size());
  std::vector<Value> spread_probes(probes.size());
  std::transform(keys.begin(), keys.end(), spread_keys.begin(), Spread);
  std::transform(probes.begin(), probes.end(), spread_probes.begin(), Spread);
  const int64_t n = static_cast<int64_t>(keys.size());
  ExecContext pool(ExecOptions{4, 4096});
  ExpectIndex(spread_keys, n, nullptr, Layout::kHashed, spread_probes);
  ExpectIndex(spread_keys, n, &pool, Layout::kHashed, spread_probes);
}

TEST(JoinIndexTest, LayoutsAgreeOnDuplicateAndNegativeKeys) {
  const std::vector<Value> keys = {5, -3, 5, 0, -3, 7, 5, -10, 0, 5};
  ExpectLayoutsAgree(keys, {5, -3, 0, 7, -10, -11, -4, 8, INT64_MIN});
  ExpectLayoutsAgree(keys, {1, 6, 100, INT64_MAX});
}

TEST(JoinIndexTest, LayoutsAgreeOnLargeBuild) {
  // Large enough for the hashed build to partition across the pool.
  std::vector<Value> keys;
  for (int64_t i = 0; i < 5000; ++i) keys.push_back((i * 7919) % 1301 - 650);
  std::vector<Value> probes;
  for (Value k = -660; k <= 660; ++k) probes.push_back(k);
  ExpectLayoutsAgree(keys, probes);
}

TEST(JoinIndexTest, EmptyBuildMatchesNothing) {
  // No key range: an empty build always takes the (two-entry) dense layout.
  ExpectIndex({}, 0, nullptr, Layout::kDense, {0, 1, -1, INT64_MIN, INT64_MAX});
}

TEST(JoinIndexTest, DenseUpToTheThresholdExactly) {
  // Two build rows: the limit is max(8 × 2, min(scanned rows, cap)).
  constexpr int64_t kCap = JoinIndex::kScanRangeCap;
  EXPECT_EQ(JoinIndex::ChooseLayout(15, 2, 0), Layout::kDense);
  EXPECT_EQ(JoinIndex::ChooseLayout(16, 2, 0), Layout::kHashed);
  EXPECT_EQ(JoinIndex::ChooseLayout(99, 2, 100), Layout::kDense);
  EXPECT_EQ(JoinIndex::ChooseLayout(100, 2, 100), Layout::kHashed);
  EXPECT_EQ(JoinIndex::ChooseLayout(kCap - 1, 2, 4 * kCap), Layout::kDense);
  EXPECT_EQ(JoinIndex::ChooseLayout(kCap, 2, 4 * kCap), Layout::kHashed);
  // Past the cap the build-rows arm still applies.
  EXPECT_EQ(JoinIndex::ChooseLayout(8 * kCap - 1, kCap, 4 * kCap),
            Layout::kDense);

  for (const int64_t scanned : {int64_t{0}, int64_t{100}}) {
    const Value limit = std::max<Value>(16, scanned);
    for (const Value hi : {limit - 1, limit}) {
      const std::vector<Value> keys = {-3, hi - 3};  // range = hi + 1
      JoinIndex index;
      index.Build(keys.data(), 2, scanned);
      const Layout want = hi < limit ? Layout::kDense : Layout::kHashed;
      EXPECT_EQ(index.layout(), want) << "range " << hi + 1;
      ExpectLayoutsAgree(keys, {-4, -3, -2, hi - 4, hi - 3, hi - 2});
    }
  }
}

TEST(JoinIndexTest, FullInt64RangeTakesHashedLayout) {
  // max - min + 1 = 2^64 overflows int64; the rule must still see a huge
  // range rather than wrap to a small one.
  const std::vector<Value> keys = {INT64_MAX, 0, INT64_MIN, INT64_MAX};
  JoinIndex index;
  index.Build(keys.data(), 4, 4);
  EXPECT_EQ(index.layout(), Layout::kHashed);
  EXPECT_EQ(RowsOf(index, INT64_MAX), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(RowsOf(index, INT64_MIN), (std::vector<uint32_t>{2}));
  EXPECT_EQ(RowsOf(index, 0), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(RowsOf(index, 1).empty());
  EXPECT_TRUE(RowsOf(index, INT64_MAX - 1).empty());
}

TEST(HashAggregateOpTest, GroupedCountsAndSums) {
  Table t = MakeTable({{1, 10}, {2, 20}, {1, 5}, {1, 1}}, 2);
  HashAggregateOp agg(
      std::make_unique<TableScanOp>(&t), {0},
      {{AggregateKind::kCount, -1}, {AggregateKind::kSum, 1},
       {AggregateKind::kMin, 1}, {AggregateKind::kMax, 1}});
  agg.Open();
  Row row;
  ASSERT_TRUE(agg.Next(&row));  // group 1 (std::map order)
  EXPECT_EQ(row, (Row{1, 3, 16, 1, 10}));
  ASSERT_TRUE(agg.Next(&row));  // group 2
  EXPECT_EQ(row, (Row{2, 1, 20, 20, 20}));
  EXPECT_FALSE(agg.Next(&row));
}

TEST(HashAggregateOpTest, GlobalAggregateSingleRow) {
  Table t = MakeTable({{4}, {6}}, 1);
  HashAggregateOp agg(std::make_unique<TableScanOp>(&t), {},
                      {{AggregateKind::kSum, 0}});
  agg.Open();
  Row row;
  ASSERT_TRUE(agg.Next(&row));
  EXPECT_EQ(row, (Row{10}));
  EXPECT_FALSE(agg.Next(&row));
}

TEST(LimitOpTest, StopsEarly) {
  Table t = MakeTable({{1}, {2}, {3}}, 1);
  LimitOp limit(std::make_unique<TableScanOp>(&t), 2);
  EXPECT_EQ(CountRows(&limit), 2u);
}

TEST(GeneratorScanOpTest, MatchesDynamicSummaryScan) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator gen(result->summary);
  const int s = env.schema.RelationIndex("S");
  GeneratorScanOp scan(&gen, s,
                       env.schema.relation(s).num_attributes());
  EXPECT_EQ(CountRows(&scan), gen.RowCount(s));
}

TEST(OperatorPipelineTest, FilterAggregateOverGeneratedTuples) {
  // The full "engine under test" path: σ then γ over dynamically generated
  // data, no storage anywhere.
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator gen(result->summary);
  const int s = env.schema.RelationIndex("S");
  const int a = env.schema.relation(s).AttrIndex("A");

  auto scan = std::make_unique<GeneratorScanOp>(
      &gen, s, env.schema.relation(s).num_attributes());
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), PredicateOf(AtomRange(a, 20, 60)));
  HashAggregateOp agg(std::move(filter), {},
                      {{AggregateKind::kCount, -1}});
  agg.Open();
  Row row;
  ASSERT_TRUE(agg.Next(&row));
  // |σ_{A∈[20,60)}(S)| = 400 (the Figure 1d constraint).
  EXPECT_EQ(row[0], 400);
}

TEST(BatchContractTest, NextShimMatchesNextBatchConcatenation) {
  Table t = MakeTable({{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 2);
  TableScanOp scan(&t);

  scan.Open();
  std::vector<Value> batched;
  RowBlock block;
  while (scan.NextBatch(&block)) {
    EXPECT_GT(block.num_rows(), 0) << "NextBatch must not emit empty batches";
    for (int64_t r = 0; r < block.num_rows(); ++r) {
      const size_t base = batched.size();
      batched.resize(base + block.num_columns());
      block.CopyRowTo(r, batched.data() + base);
    }
  }

  scan.Open();
  std::vector<Value> rowwise;
  Row row;
  while (scan.Next(&row)) rowwise.insert(rowwise.end(), row.begin(), row.end());

  EXPECT_EQ(batched, rowwise);
  EXPECT_EQ(batched, t.data());
}

TEST(SourceScanOpTest, PushedFilterMatchesFilterOpOverScan) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());
  const int s = env.schema.RelationIndex("S");
  const int cols = env.schema.relation(s).num_attributes();
  const int a = env.schema.relation(s).AttrIndex("A");
  const DnfPredicate pred = PredicateOf(AtomRange(a, 20, 60));

  SourceScanOp pushed(&*db, s, cols, pred);
  FilterOp unpushed(std::make_unique<SourceScanOp>(&*db, s, cols), pred);
  EXPECT_EQ(CountRows(&pushed), CountRows(&unpushed));
  EXPECT_EQ(CountRows(&pushed), 400u);
}

TEST(SourceScanOpTest, ScansGeneratorSource) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator gen(result->summary);
  const int s = env.schema.RelationIndex("S");
  SourceScanOp scan(&gen, s, env.schema.relation(s).num_attributes());
  EXPECT_EQ(CountRows(&scan), gen.RowCount(s));
}

TEST(OperatorPipelineTest, JoinPipelineReproducesCardinality) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());
  const Schema& schema = env.schema;
  const int s = schema.RelationIndex("S");
  const int r = schema.RelationIndex("R");
  const int a = schema.relation(s).AttrIndex("A");
  const int sfk = schema.relation(r).AttrIndex("S_fk");
  const int spk = schema.relation(s).PrimaryKeyIndex();

  auto s_scan = std::make_unique<TableScanOp>(&db->table(s));
  auto s_filtered = std::make_unique<FilterOp>(
      std::move(s_scan), PredicateOf(AtomRange(a, 20, 60)));
  HashJoinOp join(std::make_unique<TableScanOp>(&db->table(r)), sfk,
                  std::move(s_filtered), spk);
  // |σ_A(R ⋈ S)| = 50000.
  EXPECT_EQ(CountRows(&join), 50000u);
}

}  // namespace
}  // namespace hydra
