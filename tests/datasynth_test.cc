// Tests for the DataSynth baseline: grid counting, crash emulation,
// sampling-based regeneration.

#include <gtest/gtest.h>

#include "datasynth/datasynth.h"
#include "hydra/regenerator.h"
#include "workload/toy.h"

namespace hydra {
namespace {

TEST(DataSynthTest, CountLpVariablesOnToy) {
  ToyEnvironment env = MakeToyEnvironment();
  DataSynthRegenerator ds(env.schema);
  auto counts = ds.CountLpVariables(env.ccs, 1ull << 40);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  const int r = env.schema.RelationIndex("R");
  const int s = env.schema.RelationIndex("S");
  // R's sub-view (A, C): A has cuts {20,60} over [0,100) → 3 intervals; C has
  // cuts {2,3} over [0,10) → 3 intervals; grid = 9 cells.
  EXPECT_EQ((*counts)[r], 9u);
  // S's sub-view (A): 3 intervals.
  EXPECT_EQ((*counts)[s], 3u);
}

TEST(DataSynthTest, GridAtLeastAsLargeAsRegionCount) {
  ToyEnvironment env = MakeToyEnvironment();
  DataSynthRegenerator ds(env.schema);
  auto grid = ds.CountLpVariables(env.ccs, 1ull << 40);
  ASSERT_TRUE(grid.ok());
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  for (const ViewReport& v : result->views) {
    EXPECT_GE((*grid)[v.relation], v.lp_variables)
        << "relation " << v.relation;
  }
}

TEST(DataSynthTest, CrashOnVariableBudget) {
  ToyEnvironment env = MakeToyEnvironment();
  DataSynthOptions options;
  options.simplex.max_variables = 4;  // below the 9-cell grid
  DataSynthRegenerator ds(env.schema, options);
  auto result = ds.Regenerate(env.ccs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

class DataSynthRegenerateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeToyEnvironment();
    // Shrink the toy sizes so sampling-based instantiation stays fast.
    for (auto& cc : env_.ccs) cc.cardinality /= 20;
    env_.schema.mutable_relation(env_.schema.RelationIndex("R"))
        .set_row_count(4000);
    env_.schema.mutable_relation(env_.schema.RelationIndex("S"))
        .set_row_count(35);
    env_.schema.mutable_relation(env_.schema.RelationIndex("T"))
        .set_row_count(75);
  }
  ToyEnvironment env_;
};

TEST_F(DataSynthRegenerateTest, ProducesFullDatabase) {
  DataSynthRegenerator ds(env_.schema);
  auto result = ds.Regenerate(env_.ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int r = env_.schema.RelationIndex("R");
  EXPECT_GE(result->database.RowCount(r), 4000u);
  EXPECT_TRUE(result->database.CheckReferentialIntegrity().ok());
}

TEST_F(DataSynthRegenerateTest, SamplingIntroducesBoundedError) {
  DataSynthRegenerator ds(env_.schema);
  auto result = ds.Regenerate(env_.ccs);
  ASSERT_TRUE(result.ok());
  // σ_{A∈[20,60)}(S) should be near 20 (= 400/20) but, unlike Hydra, is not
  // guaranteed exact — that is the whole point of the baseline.
  const int s = env_.schema.RelationIndex("S");
  const int a = env_.schema.relation(s).AttrIndex("A");
  int64_t count = 0;
  result->database.Scan(s, [&](const Row& row) {
    if (row[a] >= 20 && row[a] < 60) ++count;
  });
  EXPECT_GT(count, 0);
  EXPECT_LT(count, 60);
}

TEST_F(DataSynthRegenerateTest, ReportsViewDiagnostics) {
  DataSynthRegenerator ds(env_.schema);
  auto result = ds.Regenerate(env_.ccs);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->views.size(), 3u);
  for (const auto& v : result->views) {
    EXPECT_GE(v.lp_variables, 0u);
  }
  EXPECT_GE(result->lp_seconds, 0);
  EXPECT_GT(result->instantiate_seconds, 0);
}

TEST_F(DataSynthRegenerateTest, DeterministicForSeed) {
  DataSynthOptions options;
  options.seed = 99;
  DataSynthRegenerator ds1(env_.schema, options);
  DataSynthRegenerator ds2(env_.schema, options);
  auto r1 = ds1.Regenerate(env_.ccs);
  auto r2 = ds2.Regenerate(env_.ccs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  const int r = env_.schema.RelationIndex("R");
  ASSERT_EQ(r1->database.RowCount(r), r2->database.RowCount(r));
  EXPECT_EQ(r1->database.table(r), r2->database.table(r));
}

}  // namespace
}  // namespace hydra
