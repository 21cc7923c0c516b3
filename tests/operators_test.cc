// Tests for engine/operators: ScanFiltered over materialized and
// dynamically generated sources, and the JoinIndex layouts behind the
// executor's probe chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "engine/operators.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "workload/toy.h"

namespace hydra {
namespace {

// ScanFiltered's output over every column, as row-major values: order-
// sensitive, so equality means an identical row stream.
std::vector<Value> Drain(const TableSource& source, int relation, int width,
                         const DnfPredicate& filter = DnfPredicate::True()) {
  std::vector<int> columns(width);
  std::iota(columns.begin(), columns.end(), 0);
  RowBlock block;
  EXPECT_TRUE(ScanFiltered(source, relation, width, filter, columns,
                           ExecOptions{}.morsel_rows, /*heads=*/false,
                           nullptr, &block)
                  .ok());
  std::vector<Value> values(static_cast<size_t>(block.num_rows() * width));
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    block.CopyRowTo(r, values.data() + r * width);
  }
  return values;
}

class ScanFilteredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeToyEnvironment();
    auto result = HydraRegenerator(env_.schema).Regenerate(env_.ccs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    summary_ = std::move(result->summary);
    auto db = MaterializeDatabase(summary_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::make_unique<Database>(std::move(db).value());
    gen_ = std::make_unique<TupleGenerator>(summary_);
    s_ = env_.schema.RelationIndex("S");
    cols_ = env_.schema.relation(s_).num_attributes();
  }

  // The materialized database and the generator over the same summary.
  std::vector<const TableSource*> Sources() const {
    return {db_.get(), gen_.get()};
  }

  ToyEnvironment env_;
  DatabaseSummary summary_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<TupleGenerator> gen_;
  int s_ = -1;
  int cols_ = 0;
};

TEST_F(ScanFilteredTest, EmitsEveryRowOfEitherSource) {
  for (const TableSource* source : Sources()) {
    const std::vector<Value> got = Drain(*source, s_, cols_);
    ASSERT_EQ(got.size(), source->RowCount(s_) * cols_);
    std::vector<Value> want;
    source->Scan(s_, [&](const Row& row) {
      want.insert(want.end(), row.begin(), row.end());
    });
    EXPECT_EQ(got, want);
  }
  // Both sources serve the same summary, so the same stream.
  EXPECT_EQ(Drain(*db_, s_, cols_), Drain(*gen_, s_, cols_));
}

TEST_F(ScanFilteredTest, PushedFilterAgreesWithRowWiseEval) {
  // The pushed filter runs the BlockPredicate + Gather kernels; the oracle
  // is DnfPredicate::Eval applied row by row to the unfiltered scan.
  const int a = env_.schema.relation(s_).AttrIndex("A");
  const DnfPredicate pred = PredicateOf(AtomRange(a, 20, 60));
  for (const TableSource* source : Sources()) {
    const std::vector<Value> all = Drain(*source, s_, cols_);
    std::vector<Value> want;
    for (size_t r = 0; r < all.size(); r += cols_) {
      if (pred.Eval(all.data() + r)) {
        want.insert(want.end(), all.begin() + r, all.begin() + r + cols_);
      }
    }
    EXPECT_EQ(Drain(*source, s_, cols_, pred), want);
    // |σ_{A∈[20,60)}(S)| = 400 (the Figure 1d constraint).
    EXPECT_EQ(want.size() / cols_, 400u);
  }
}

TEST_F(ScanFilteredTest, ProjectedScanMatchesFullScanOnLiveColumns) {
  // Kept columns {PK, A} (A is the filter column): a filtered scan emits
  // the full scan's rows on those columns, in that order.
  const Relation& rel = env_.schema.relation(s_);
  const int a = rel.AttrIndex("A");
  const int pk = rel.PrimaryKeyIndex();
  const DnfPredicate pred = PredicateOf(AtomRange(a, 20, 60));
  for (const TableSource* source : Sources()) {
    const std::vector<Value> want = Drain(*source, s_, cols_, pred);
    RowBlock block;
    ASSERT_TRUE(ScanFiltered(*source, s_, cols_, pred, {pk, a},
                             ExecOptions{}.morsel_rows, /*heads=*/false,
                             nullptr, &block)
                    .ok());
    ASSERT_EQ(block.num_columns(), 2);
    // The filter drops 300 of S's 700 rows.
    ASSERT_EQ(block.num_rows(), 400);
    ASSERT_EQ(static_cast<size_t>(block.num_rows()), want.size() / cols_);
    for (int64_t r = 0; r < block.num_rows(); ++r) {
      EXPECT_EQ(block.At(r, 0), want[r * cols_ + pk]) << "row " << r;
      EXPECT_EQ(block.At(r, 1), want[r * cols_ + a]) << "row " << r;
    }
  }
}

// A heads scan over the generator keeps one weighted row per passing run
// stretch; expanded run by run (the PK counting up from each head's first
// rank) it is the row scan. Over the database it is the row scan itself.
TEST_F(ScanFilteredTest, HeadsScanExpandsToTheRowScan) {
  const Relation& rel = env_.schema.relation(s_);
  const int a = rel.AttrIndex("A");
  const int pk = rel.PrimaryKeyIndex();
  const DnfPredicate pred = PredicateOf(AtomRange(a, 20, 60));
  for (const TableSource* source : Sources()) {
    for (const int64_t morsel_rows : {int64_t{1}, int64_t{13}, int64_t{4096}}) {
      RowBlock rows;
      ASSERT_TRUE(ScanFiltered(*source, s_, cols_, pred, {pk, a}, morsel_rows,
                               /*heads=*/false, nullptr, &rows)
                      .ok());
      RowBlock heads;
      ASSERT_TRUE(ScanFiltered(*source, s_, cols_, pred, {pk, a}, morsel_rows,
                               /*heads=*/true, nullptr, &heads)
                      .ok());
      ASSERT_EQ(heads.weighted(), source == gen_.get()) << morsel_rows;
      std::vector<Value> expanded;
      for (int64_t h = 0; h < heads.num_rows(); ++h) {
        const uint64_t weight = heads.weighted() ? heads.weights()[h] : 1;
        for (uint64_t i = 0; i < weight; ++i) {
          expanded.push_back(heads.At(h, 0) + static_cast<Value>(i));
          expanded.push_back(heads.At(h, 1));
        }
      }
      std::vector<Value> want(static_cast<size_t>(rows.num_rows() * 2));
      for (int64_t r = 0; r < rows.num_rows(); ++r) {
        rows.CopyRowTo(r, want.data() + 2 * r);
      }
      EXPECT_EQ(expanded, want) << morsel_rows;
    }
  }
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
                 Layout layout, const std::vector<Value>& probes) {
  const int64_t n = static_cast<int64_t>(keys.size());
  JoinIndex index;
  index.Build(keys.data(), n, scanned_rows);
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
// the hashed layout over the same keys spread apart.
void ExpectLayoutsAgree(const std::vector<Value>& keys,
                        const std::vector<Value>& probes) {
  ASSERT_FALSE(keys.empty());
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  ExpectIndex(keys, *hi - *lo + 1, Layout::kDense, probes);
  std::vector<Value> spread_keys(keys.size());
  std::vector<Value> spread_probes(probes.size());
  std::transform(keys.begin(), keys.end(), spread_keys.begin(), Spread);
  std::transform(probes.begin(), probes.end(), spread_probes.begin(), Spread);
  ExpectIndex(spread_keys, static_cast<int64_t>(keys.size()), Layout::kHashed,
              spread_probes);
}

TEST(JoinIndexTest, LayoutsAgreeOnDuplicateAndNegativeKeys) {
  const std::vector<Value> keys = {5, -3, 5, 0, -3, 7, 5, -10, 0, 5};
  ExpectLayoutsAgree(keys, {5, -3, 0, 7, -10, -11, -4, 8, INT64_MIN});
  ExpectLayoutsAgree(keys, {1, 6, 100, INT64_MAX});
}

TEST(JoinIndexTest, LayoutsAgreeOnLargeBuild) {
  // 5,000 rows over 1,301 distinct keys: most keys span several rows.
  std::vector<Value> keys;
  for (int64_t i = 0; i < 5000; ++i) keys.push_back((i * 7919) % 1301 - 650);
  std::vector<Value> probes;
  for (Value k = -660; k <= 660; ++k) probes.push_back(k);
  ExpectLayoutsAgree(keys, probes);
}

TEST(JoinIndexTest, EmptyBuildMatchesNothing) {
  // No key range: an empty build always takes the (two-entry) dense layout.
  ExpectIndex({}, 0, Layout::kDense, {0, 1, -1, INT64_MIN, INT64_MAX});
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

TEST(JoinIndexTest, RunsLayoutFindsEveryKeyOfARun) {
  // Runs [0, 3), [3, 4), [10, 15) and one past 2^32 keys long: every key
  // inside a run finds its head, keys in gaps and outside find nothing.
  const Value big = Value{1} << 40;
  const std::vector<Value> starts = {0, 3, 10, big};
  const std::vector<uint64_t> lengths = {3, 1, 5, uint64_t{5} << 32};
  JoinIndex index;
  index.BuildRuns(starts.data(), lengths.data(), 4);
  EXPECT_EQ(index.layout(), Layout::kRuns);
  const std::vector<std::pair<Value, int>> probes = {
      {0, 0},         {2, 0},       {3, 1},  {4, -1},
      {9, -1},        {10, 2},      {14, 2}, {15, -1},
      {-1, -1},       {INT64_MIN, -1},       {big - 1, -1},
      {big, 3},       {big + (Value{5} << 32) - 1, 3},
      {big + (Value{5} << 32), -1},          {INT64_MAX, -1}};
  for (const auto& [key, head] : probes) {
    const std::vector<uint32_t> want =
        head < 0 ? std::vector<uint32_t>{}
                 : std::vector<uint32_t>{static_cast<uint32_t>(head)};
    EXPECT_EQ(RowsOf(index, key), want) << "key " << key;
  }
  // A later Build drops the runs.
  const std::vector<Value> keys = {7};
  index.Build(keys.data(), 1, 1);
  EXPECT_EQ(index.layout(), Layout::kDense);
  EXPECT_EQ(RowsOf(index, 7), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(RowsOf(index, 0).empty());
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

}  // namespace
}  // namespace hydra
