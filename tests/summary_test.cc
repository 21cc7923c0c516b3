// Unit tests for hydra/summary and hydra/summary_generator.

#include <gtest/gtest.h>

#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "hydra/summary_generator.h"
#include "lp/integerize.h"
#include "lp/simplex.h"
#include "view_oracle.h"
#include "workload/toy.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

TEST(RelationSummaryTest, PrefixSumsAndTupleLookup) {
  RelationSummary rs;
  rs.relation = 0;
  rs.attr_indices = {1};
  rs.rows = {{{10}, 3}, {{20}, 1}, {{30}, 4}};
  rs.Finalize();
  EXPECT_EQ(rs.TotalCount(), 8);
  EXPECT_EQ(rs.prefix_counts, (std::vector<int64_t>{0, 3, 4}));
  EXPECT_EQ(rs.RowIndexForTuple(0), 0);
  EXPECT_EQ(rs.RowIndexForTuple(2), 0);
  EXPECT_EQ(rs.RowIndexForTuple(3), 1);
  EXPECT_EQ(rs.RowIndexForTuple(4), 2);
  EXPECT_EQ(rs.RowIndexForTuple(7), 2);
}

TEST(ViewSummaryTest, TotalCount) {
  ViewSummary vs;
  vs.rows = {{{1, 2}, 5}, {{3, 4}, 7}};
  EXPECT_EQ(vs.TotalCount(), 12);
}

TEST(DatabaseSummaryTest, ByteSizeCountsRows) {
  DatabaseSummary s;
  s.relations.resize(1);
  s.relations[0].rows = {{{1, 2, 3}, 10}};
  const uint64_t sz = s.ByteSize();
  EXPECT_GT(sz, 3 * sizeof(Value));
  EXPECT_LT(sz, 4096u);
}

class ToySummaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeToyEnvironment();
    Preprocessor pre(env_.schema);
    auto views = pre.BuildViews();
    ASSERT_TRUE(views.ok());
    views_ = std::move(*views);
    auto mapped = pre.MapConstraints(views_, env_.ccs);
    ASSERT_TRUE(mapped.ok());
    mapped_ = std::move(*mapped);
  }

  ViewSummary SolveAndSummarize(int rel) {
    auto lp = FormulateViewLp(views_[rel], mapped_[rel]);
    EXPECT_TRUE(lp.ok());
    std::vector<int64_t> ints;
    if (lp->problem.num_vars() > 0) {
      auto sol = SolveFeasibility(lp->problem);
      EXPECT_TRUE(sol.ok());
      ints = IntegerizeSolution(lp->problem, sol->values).values;
    }
    SummaryGenerator gen(env_.schema);
    auto vs = gen.BuildViewSummary(views_[rel], *lp, ints);
    EXPECT_TRUE(vs.ok());
    return std::move(*vs);
  }

  ToyEnvironment env_;
  std::vector<View> views_;
  std::vector<std::vector<ViewConstraint>> mapped_;
};

TEST_F(ToySummaryTest, ViewSummaryTotalsMatchRowCounts) {
  const int r = env_.schema.RelationIndex("R");
  const int s = env_.schema.RelationIndex("S");
  EXPECT_EQ(SolveAndSummarize(r).TotalCount(), 80000);
  EXPECT_EQ(SolveAndSummarize(s).TotalCount(), 700);
}

TEST_F(ToySummaryTest, ViewSummarySatisfiesConstraints) {
  const int r = env_.schema.RelationIndex("R");
  const ViewSummary vs = SolveAndSummarize(r);
  // Find the two join CCs in view space and verify the summed counts.
  for (const ViewConstraint& vc : mapped_[r]) {
    if (vc.predicate.IsTrue()) continue;
    int64_t count = 0;
    for (const SolutionRow& row : vs.rows) {
      if (vc.predicate.Eval(row.values)) count += row.count;
    }
    EXPECT_EQ(count, static_cast<int64_t>(vc.cardinality)) << vc.label;
  }
}

TEST_F(ToySummaryTest, DatabaseSummaryReferentialConsistency) {
  std::vector<ViewSummary> summaries;
  for (int rel = 0; rel < env_.schema.num_relations(); ++rel) {
    summaries.push_back(SolveAndSummarize(rel));
  }
  SummaryGenerator gen(env_.schema);
  auto db = gen.BuildDatabaseSummary(views_, std::move(summaries));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->relations.size(), 3u);

  // Every FK value must be a valid PK (i.e. < target total count).
  const int r = env_.schema.RelationIndex("R");
  const RelationSummary& rr = db->relations[r];
  for (const SolutionRow& row : rr.rows) {
    for (size_t i = 0; i < rr.attr_indices.size(); ++i) {
      const Attribute& attr =
          env_.schema.relation(r).attribute(rr.attr_indices[i]);
      if (attr.kind != AttributeKind::kForeignKey) continue;
      EXPECT_GE(row.values[i], 0);
      EXPECT_LT(row.values[i],
                db->relations[attr.fk_target].TotalCount());
    }
  }
}

TEST_F(ToySummaryTest, ExtraTuplesAreScaleFreeSmall) {
  std::vector<ViewSummary> summaries;
  for (int rel = 0; rel < env_.schema.num_relations(); ++rel) {
    summaries.push_back(SolveAndSummarize(rel));
  }
  SummaryGenerator gen(env_.schema);
  auto db = gen.BuildDatabaseSummary(views_, std::move(summaries));
  ASSERT_TRUE(db.ok());
  // The additive error is bounded by the number of summary rows, not by the
  // 80000-tuple data scale.
  EXPECT_LT(db->TotalExtraTuples(), 50u);
}

TEST_F(ToySummaryTest, SummaryIsMinuscule) {
  std::vector<ViewSummary> summaries;
  for (int rel = 0; rel < env_.schema.num_relations(); ++rel) {
    summaries.push_back(SolveAndSummarize(rel));
  }
  SummaryGenerator gen(env_.schema);
  auto db = gen.BuildDatabaseSummary(views_, std::move(summaries));
  ASSERT_TRUE(db.ok());
  // ~82K tuples summarized in well under 64 KiB.
  EXPECT_LT(db->ByteSize(), 64u * 1024);
}

TEST(SummaryGeneratorTest, UnconstrainedViewGetsSingleRow) {
  ToyEnvironment env = MakeToyEnvironment();
  Preprocessor pre(env.schema);
  auto views = pre.BuildViews();
  ASSERT_TRUE(views.ok());
  const int s = env.schema.RelationIndex("S");
  auto lp = FormulateViewLp((*views)[s], {});
  ASSERT_TRUE(lp.ok());
  SummaryGenerator gen(env.schema);
  auto vs = gen.BuildViewSummary((*views)[s], *lp, {});
  ASSERT_TRUE(vs.ok());
  ASSERT_EQ(vs->rows.size(), 1u);
  EXPECT_EQ(vs->rows[0].count, 700);
  // Left-boundary instantiation at the domain minimum.
  EXPECT_EQ(vs->rows[0].values[0], 0);
}

// The view-level oracle on regen_wlc's workload (200 WLc queries) at sf 1,
// one client database per seed.
class WlcViewOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WlcViewOracleTest, ViewSummariesMeetCcsWithinResidual) {
  Schema schema = TpcdsSchema(1.0);
  auto queries =
      TpcdsWorkload(schema, TpcdsWorkloadKind::kComplex, 200, 424242);
  auto site = BuildClientSite(schema, DataGenOptions{.seed = GetParam()},
                              std::move(queries));
  ASSERT_TRUE(site.ok()) << site.status().ToString();
  ExpectViewCcsWithinResidual(site->schema, site->ccs);
}

INSTANTIATE_TEST_SUITE_P(ClientSeeds, WlcViewOracleTest,
                         ::testing::Values<uint64_t>(1, 2, 3));

}  // namespace
}  // namespace hydra
