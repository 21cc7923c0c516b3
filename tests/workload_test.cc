// Tests for workload/: schemas, data generation, workload generation, client
// site construction and similarity measurement.

#include <gtest/gtest.h>

#include "workload/job.h"
#include "workload/tpcds.h"
#include "workload/toy.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

TEST(TpcdsSchemaTest, ValidatesAndHas24Relations) {
  Schema s = TpcdsSchema(1.0);
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.num_relations(), 24);
  EXPECT_GE(s.RelationIndex("store_sales"), 0);
  EXPECT_GE(s.RelationIndex("inventory"), 0);
  EXPECT_GE(s.RelationIndex("income_band"), 0);
}

TEST(TpcdsSchemaTest, DiamondDependenciesPresent) {
  // store_sales and store_returns both reach date_dim; customer chains to
  // household_demographics → income_band: the DAG shape Hydra supports.
  Schema s = TpcdsSchema(1.0);
  const int ss = s.RelationIndex("store_sales");
  const auto deps = s.TransitiveDependencies(ss);
  EXPECT_GT(deps.size(), 8u);
  const int ib = s.RelationIndex("income_band");
  EXPECT_TRUE(std::binary_search(deps.begin(), deps.end(), ib))
      << "store_sales must transitively reach income_band";
}

TEST(TpcdsSchemaTest, ScaleFactorScalesFacts) {
  Schema s1 = TpcdsSchema(1.0);
  Schema s4 = TpcdsSchema(4.0);
  const int ss1 = s1.RelationIndex("store_sales");
  EXPECT_EQ(s4.relation(ss1).row_count(), 4 * s1.relation(ss1).row_count());
  // Dimensions grow sub-linearly.
  const int item = s1.RelationIndex("item");
  EXPECT_LT(s4.relation(item).row_count(),
            4 * s1.relation(item).row_count());
  EXPECT_GT(s4.relation(item).row_count(), s1.relation(item).row_count());
}

TEST(TpcdsWorkloadTest, QueriesValidate) {
  Schema s = TpcdsSchema(1.0);
  for (auto kind : {TpcdsWorkloadKind::kComplex, TpcdsWorkloadKind::kSimple}) {
    const auto queries = TpcdsWorkload(s, kind, 50, 123);
    ASSERT_EQ(queries.size(), 50u);
    for (const Query& q : queries) {
      EXPECT_TRUE(q.Validate(s).ok()) << q.name;
    }
  }
}

TEST(TpcdsWorkloadTest, DeterministicInSeed) {
  Schema s = TpcdsSchema(1.0);
  const auto a = TpcdsWorkload(s, TpcdsWorkloadKind::kComplex, 10, 7);
  const auto b = TpcdsWorkload(s, TpcdsWorkloadKind::kComplex, 10, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tables.size(), b[i].tables.size());
    EXPECT_EQ(a[i].joins.size(), b[i].joins.size());
  }
}

TEST(TpcdsWorkloadTest, ComplexHasDnfAndDeepJoins) {
  Schema s = TpcdsSchema(1.0);
  const auto queries = TpcdsWorkload(s, TpcdsWorkloadKind::kComplex, 131, 42);
  int dnf_filters = 0;
  size_t max_joins = 0;
  for (const Query& q : queries) {
    max_joins = std::max(max_joins, q.joins.size());
    for (const QueryTable& qt : q.tables) {
      if (qt.filter.conjuncts().size() > 1) ++dnf_filters;
    }
  }
  EXPECT_GT(dnf_filters, 5);
  EXPECT_GE(max_joins, 4u);
}

TEST(JobSchemaTest, ValidatesAndScales) {
  Schema s = JobSchema(1.0);
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.num_relations(), 13);
  // cast_info references title which references kind_type: a 2-level chain.
  const int ci = s.RelationIndex("cast_info");
  const auto deps = s.TransitiveDependencies(ci);
  EXPECT_TRUE(std::binary_search(deps.begin(), deps.end(),
                                 s.RelationIndex("kind_type")));
}

TEST(JobWorkloadTest, QueriesValidate) {
  Schema s = JobSchema(1.0);
  const auto queries = JobWorkload(s, 60, 5);
  ASSERT_EQ(queries.size(), 60u);
  for (const Query& q : queries) {
    EXPECT_TRUE(q.Validate(s).ok()) << q.name;
  }
}

TEST(DataGenTest, RespectsDomainsAndKeys) {
  Schema s = TpcdsSchema(0.2);
  auto db = GenerateClientDatabase(s, DataGenOptions{.seed = 1});
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->CheckReferentialIntegrity().ok());
  // Row counts match metadata; data attrs within domains.
  for (int r = 0; r < s.num_relations(); ++r) {
    EXPECT_EQ(db->RowCount(r), s.relation(r).row_count());
    const Relation& rel = s.relation(r);
    const Table& t = db->table(r);
    for (int a : rel.DataAttrIndices()) {
      const Interval dom = rel.attribute(a).domain;
      for (uint64_t i = 0; i < std::min<uint64_t>(t.num_rows(), 200); ++i) {
        ASSERT_TRUE(dom.Contains(t.At(i, a)))
            << rel.name() << "." << rel.attribute(a).name << " = "
            << t.At(i, a);
      }
    }
  }
}

TEST(DataGenTest, FkDistributionIsSkewed) {
  Schema s = TpcdsSchema(1.0);
  auto db = GenerateClientDatabase(s, DataGenOptions{.seed = 2});
  ASSERT_TRUE(db.ok());
  const int ss = s.RelationIndex("store_sales");
  const int item_fk = s.relation(ss).AttrIndex("ss_item_sk");
  const uint64_t items = s.relation(s.RelationIndex("item")).row_count();
  uint64_t low = 0, rows = db->RowCount(ss);
  for (uint64_t i = 0; i < rows; ++i) {
    if (db->table(ss).At(i, item_fk) <
        static_cast<int64_t>(items / 10)) {
      ++low;
    }
  }
  // Zipf: far more than 10% of references hit the first decile of items.
  EXPECT_GT(static_cast<double>(low) / rows, 0.25);
}

TEST(ClientSiteTest, BuildsAqpsAndCcs) {
  Schema s = TpcdsSchema(0.2);
  auto queries = TpcdsWorkload(s, TpcdsWorkloadKind::kSimple, 12, 9);
  auto site = BuildClientSite(s, DataGenOptions{.seed = 3},
                              std::move(queries));
  ASSERT_TRUE(site.ok()) << site.status().ToString();
  EXPECT_EQ(site->queries.size(), 12u);
  EXPECT_EQ(site->aqps.size(), 12u);
  // Size CCs (24) + at least one CC per query.
  EXPECT_GE(site->ccs.size(), 24u + 12u);
  // Every CC cardinality is consistent with its relation's table size.
  for (const auto& cc : site->ccs) {
    EXPECT_LE(cc.cardinality,
              site->database.RowCount(cc.RootRelation()))
        << cc.label;
  }
}

TEST(SimilarityTest, SelfComparisonIsExact) {
  Schema s = TpcdsSchema(0.2);
  auto queries = TpcdsWorkload(s, TpcdsWorkloadKind::kSimple, 8, 4);
  auto site = BuildClientSite(s, DataGenOptions{.seed = 5},
                              std::move(queries));
  ASSERT_TRUE(site.ok());
  auto report = MeasureVolumetricSimilarity(*site, site->database);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->FractionWithin(0.0), 1.0);
  EXPECT_DOUBLE_EQ(report->MaxAbsError(), 0.0);
  EXPECT_EQ(report->CountNegative(), 0);
}

TEST(SimilarityTest, DetectsDeviations) {
  ToyEnvironment env = MakeToyEnvironment();
  env.schema.mutable_relation(0).set_row_count(100);
  env.schema.mutable_relation(1).set_row_count(100);
  env.schema.mutable_relation(2).set_row_count(1000);
  auto site = BuildClientSite(env.schema, DataGenOptions{.seed = 6},
                              {env.query});
  ASSERT_TRUE(site.ok());
  // Vendor = an empty database: everything deviates fully negative.
  Database empty(site->schema);
  auto report = MeasureVolumetricSimilarity(*site, empty);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->FractionWithin(0.5), 1.0);
  EXPECT_GT(report->CountNegative(), 0);
}

TEST(SimilarityTest, RejectsSiteWithMissingAqps) {
  ToyEnvironment env = MakeToyEnvironment();
  env.schema.mutable_relation(0).set_row_count(100);
  env.schema.mutable_relation(1).set_row_count(100);
  env.schema.mutable_relation(2).set_row_count(1000);
  Query second = env.query;
  second.name = "toy_q2";
  auto site = BuildClientSite(env.schema, DataGenOptions{.seed = 6},
                              {env.query, second});
  ASSERT_TRUE(site.ok());
  site->aqps.pop_back();  // one AQP short of the two queries
  auto report = MeasureVolumetricSimilarity(*site, site->database);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ToyTest, EnvironmentMatchesPaperFigures) {
  ToyEnvironment env = MakeToyEnvironment();
  ASSERT_EQ(env.ccs.size(), 7u);
  EXPECT_EQ(env.ccs[0].cardinality, 80000u);
  EXPECT_EQ(env.ccs.back().cardinality, 30000u);
  EXPECT_TRUE(env.query.Validate(env.schema).ok());
}

}  // namespace
}  // namespace hydra
