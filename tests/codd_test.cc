// Tests for codd/metadata: capture, matching, scale modeling.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "codd/metadata.h"
#include "common/text_table.h"
#include "workload/datagen.h"
#include "workload/toy.h"

namespace hydra {
namespace {

TEST(CoddTest, CaptureReflectsData) {
  ToyEnvironment env = MakeToyEnvironment();
  env.schema.mutable_relation(env.schema.RelationIndex("R"))
      .set_row_count(500);
  auto db = GenerateClientDatabase(env.schema, DataGenOptions{.seed = 1});
  ASSERT_TRUE(db.ok());
  const DatabaseMetadata md = CaptureMetadata(*db);
  ASSERT_EQ(md.relations.size(), 3u);
  const int s = env.schema.RelationIndex("S");
  EXPECT_EQ(md.relations[s].name, "S");
  EXPECT_EQ(md.relations[s].row_count, 700u);
  const int a = env.schema.relation(s).AttrIndex("A");
  EXPECT_GE(md.relations[s].columns[a].min_value, 0);
  EXPECT_LT(md.relations[s].columns[a].max_value, 100);
  EXPECT_GT(md.relations[s].columns[a].num_distinct, 1u);
}

TEST(CoddTest, ApplyMetadataTransfersRowCountsAndDomains) {
  ToyEnvironment env = MakeToyEnvironment();
  auto db = GenerateClientDatabase(env.schema, DataGenOptions{.seed = 2});
  ASSERT_TRUE(db.ok());
  DatabaseMetadata md = CaptureMetadata(*db);
  md.relations[0].row_count = 4242;

  Schema vendor = env.schema;  // pristine copy
  ASSERT_TRUE(ApplyMetadata(md, &vendor).ok());
  EXPECT_EQ(vendor.relation(0).row_count(), 4242u);
  // Data-attribute domain tightened to observed min/max.
  const int s = env.schema.RelationIndex("S");
  const int a = env.schema.relation(s).AttrIndex("A");
  EXPECT_EQ(vendor.relation(s).attribute(a).domain.lo,
            md.relations[s].columns[a].min_value);
  EXPECT_EQ(vendor.relation(s).attribute(a).domain.hi,
            md.relations[s].columns[a].max_value + 1);
}

TEST(CoddTest, ApplyMetadataRejectsArityMismatch) {
  ToyEnvironment env = MakeToyEnvironment();
  DatabaseMetadata md;
  md.relations.resize(2);  // schema has 3
  Schema schema = env.schema;
  EXPECT_FALSE(ApplyMetadata(md, &schema).ok());
}

TEST(CoddTest, ScaleMetadataMultipliesRowCounts) {
  DatabaseMetadata md;
  md.relations.push_back(RelationMetadata{"x", 100, {}});
  const DatabaseMetadata scaled = ScaleMetadata(md, 1e7);
  EXPECT_EQ(scaled.relations[0].row_count, 1000000000u);
}

TEST(CoddTest, ScaleConstraintsToExabyteCardinalities) {
  ToyEnvironment env = MakeToyEnvironment();
  const auto scaled = ScaleConstraints(env.ccs, 1e7);
  EXPECT_EQ(scaled[0].cardinality, 800000000000u);  // 8e4 * 1e7
  // Labels and structure preserved.
  EXPECT_EQ(scaled[0].label, env.ccs[0].label);
  EXPECT_EQ(scaled.back().relations, env.ccs.back().relations);
}

TEST(CoddTest, ScalingPastInt64NeverWrapsBackIntoRange) {
  // 115,000 x 1e14 = 1.15e19 lies between 2^63 and 2^64 and is exact in a
  // double; x 1e15 lies past 2^64 and saturates. Neither may come back at
  // or below INT64_MAX, which Regenerate would accept.
  constexpr uint64_t kInt64Max = INT64_MAX;
  DatabaseMetadata md;
  md.relations.push_back(RelationMetadata{"x", 115000, {}});
  std::vector<CardinalityConstraint> ccs(1);
  ccs[0].cardinality = 115000;
  for (const double factor : {1e14, 1e15, 1e16}) {
    const uint64_t rows = ScaleMetadata(md, factor).relations[0].row_count;
    const uint64_t card = ScaleConstraints(ccs, factor)[0].cardinality;
    EXPECT_GT(rows, kInt64Max) << factor;
    EXPECT_GT(card, kInt64Max) << factor;
    EXPECT_EQ(rows, card) << factor;
  }
  EXPECT_EQ(ScaleMetadata(md, 1e14).relations[0].row_count,
            11'500'000'000'000'000'000u);
  EXPECT_EQ(ScaleConstraints(ccs, 1e15)[0].cardinality, UINT64_MAX);
  // Below 2^63 the count is still rounded to the nearest integer.
  EXPECT_EQ(ScaleMetadata(md, 1e13).relations[0].row_count,
            1'150'000'000'000'000'000u);
  EXPECT_EQ(ScaleConstraints(ccs, 0.5)[0].cardinality, 57500u);
}

TEST(CoddTest, EstimatedBytes) {
  ToyEnvironment env = MakeToyEnvironment();
  auto db = GenerateClientDatabase(env.schema, DataGenOptions{.seed = 4});
  ASSERT_TRUE(db.ok());
  const DatabaseMetadata md = CaptureMetadata(*db);
  EXPECT_EQ(md.EstimatedBytes(env.schema),
            static_cast<double>(db->TotalBytes()));
}

TEST(CoddTest, EstimatedBytesPast2To64) {
  // CODD factor 1e12, the top of sec74_exabyte's model (~29 EiB in all):
  // 115,000 rows of 23 values scale to 1.15e17 rows and 2.116e19 bytes,
  // past 2^64 (~1.845e19), which a uint64 sum wraps to ~2.7e18.
  Relation wide("wide", 115000);
  for (int a = 0; a < 23; ++a) {
    wide.AddDataAttribute("a" + std::to_string(a), Interval(0, 10));
  }
  Schema schema;
  schema.AddRelation(std::move(wide));
  DatabaseMetadata md;
  md.relations.push_back(RelationMetadata{"wide", 115000, {}});
  const DatabaseMetadata scaled = ScaleMetadata(md, 1e12);
  ASSERT_EQ(scaled.relations[0].row_count, 115'000'000'000'000'000u);
  EXPECT_EQ(scaled.EstimatedBytes(schema), 21'160'000'000'000'000'000.0);
  EXPECT_EQ(FormatBytes(scaled.EstimatedBytes(schema)), "18.4 EiB");
}

}  // namespace
}  // namespace hydra
