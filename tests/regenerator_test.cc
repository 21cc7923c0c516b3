// Integration tests for the end-to-end HydraRegenerator API on the paper's
// running example.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "workload/toy.h"

namespace hydra {
namespace {

TEST(RegeneratorTest, ToyEnvironmentSatisfiesAllCcsExactly) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());

  // Verify every CC against the materialized database by direct evaluation.
  for (const CardinalityConstraint& cc : env.ccs) {
    if (cc.relations.size() == 1 && cc.predicate.IsTrue()) {
      EXPECT_EQ(db->RowCount(cc.relations[0]), cc.cardinality) << cc.label;
    }
  }
  EXPECT_TRUE(db->CheckReferentialIntegrity().ok());
}

TEST(RegeneratorTest, ReportsPerViewDiagnostics) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->views.size(), 3u);
  // The R view (two-attribute clique) needs only a handful of variables —
  // the region-partitioning claim at toy scale.
  EXPECT_LE(result->MaxLpVariables(), 16u);
  EXPECT_GT(result->TotalLpVariables(), 0u);
  for (const ViewReport& v : result->views) {
    EXPECT_EQ(v.max_abs_violation, 0) << "relation " << v.relation;
  }
  EXPECT_GT(result->total_seconds, 0);
}

TEST(RegeneratorTest, SummaryIndependentOfDataScale) {
  // Scaling all cardinalities by 1000x must not change the summary's size —
  // the dynamic-regeneration claim (Section 7.4).
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto base = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(base.ok());

  std::vector<CardinalityConstraint> scaled = env.ccs;
  for (auto& cc : scaled) cc.cardinality *= 1000;
  Schema big = env.schema;
  for (int r = 0; r < big.num_relations(); ++r) {
    big.mutable_relation(r).set_row_count(big.relation(r).row_count() * 1000);
  }
  HydraRegenerator hydra_big(big);
  auto scaled_result = hydra_big.Regenerate(scaled);
  ASSERT_TRUE(scaled_result.ok()) << scaled_result.status().ToString();

  EXPECT_EQ(base->summary.relations[0].rows.size(),
            scaled_result->summary.relations[0].rows.size());
  // Byte sizes are equal up to integer-width noise.
  EXPECT_NEAR(static_cast<double>(base->summary.ByteSize()),
              static_cast<double>(scaled_result->summary.ByteSize()),
              base->summary.ByteSize() * 0.1);
  // But the described data is 1000x larger.
  EXPECT_EQ(scaled_result->summary.relations[0].TotalCount(),
            base->summary.relations[0].TotalCount() * 1000);
}

TEST(RegeneratorTest, EmptyCcListStillProducesValidSummary) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate({});
  ASSERT_TRUE(result.ok());
  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->RowCount(env.schema.RelationIndex("R")), 80000u);
  EXPECT_TRUE(db->CheckReferentialIntegrity().ok());
}

TEST(RegeneratorTest, InfeasibleCcsReportError) {
  ToyEnvironment env = MakeToyEnvironment();
  // σ(S) larger than |S|.
  const int s = env.schema.RelationIndex("S");
  CardinalityConstraint bad;
  bad.relations = {s};
  bad.columns = {AttrRef{s, env.schema.relation(s).AttrIndex("A")}};
  bad.predicate = PredicateOf(AtomRange(0, 0, 10));
  bad.cardinality = 5000;  // |S| = 700
  bad.label = "impossible";
  std::vector<CardinalityConstraint> ccs = env.ccs;
  ccs.push_back(bad);
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(ccs);
  ASSERT_FALSE(result.ok());
  // The per-view error keeps the solver's code and names the view at fault.
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.status().message().rfind("view S: ", 0), 0u)
      << result.status().ToString();
}

TEST(RegeneratorTest, ContradictoryTotalSizeCcsReportError) {
  ToyEnvironment env = MakeToyEnvironment();
  const int s = env.schema.RelationIndex("S");
  std::vector<CardinalityConstraint> ccs = env.ccs;
  ccs.push_back(RelationSizeConstraint(s, 701, "|S| again"));  // |S| = 700
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(ccs);
  ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();
  EXPECT_EQ(result.status().message(),
            "view S: total-size CCs disagree: |S| = 700, |S| again = 701");
}

TEST(RegeneratorTest, CcPastInt64IsOutOfRange) {
  ToyEnvironment env = MakeToyEnvironment();
  std::vector<CardinalityConstraint> ccs = env.ccs;
  CardinalityConstraint& join = ccs.back();  // |σ_{A∧C}(R⋈S⋈T)|
  join.cardinality = uint64_t{1} << 63;      // INT64_MAX + 1
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(ccs);
  ASSERT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status().ToString();
  EXPECT_EQ(result.status().message(),
            "CC " + join.label +
                " has cardinality 9223372036854775808, past INT64_MAX");
}

TEST(RegeneratorTest, RelationPastInt64IsOutOfRange) {
  ToyEnvironment env = MakeToyEnvironment();
  Schema big = env.schema;
  big.mutable_relation(big.RelationIndex("S"))
      .set_row_count(uint64_t{1} << 63);
  HydraRegenerator hydra(big);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status().ToString();
  EXPECT_EQ(result.status().message(),
            "relation S has 9223372036854775808 rows, past INT64_MAX");
}

TEST(RegeneratorTest, PositiveOnlyErrors) {
  // Hydra's only inaccuracy is ADDING tuples for referential integrity —
  // never removing mass (Section 7.1's one-sided error claim).
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  for (int r = 0; r < env.schema.num_relations(); ++r) {
    EXPECT_GE(result->summary.relations[r].TotalCount(),
              static_cast<int64_t>(env.schema.relation(r).row_count()));
  }
}

}  // namespace
}  // namespace hydra
