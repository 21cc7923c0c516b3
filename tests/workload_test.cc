// Tests for workload/: schemas, data generation, workload generation, client
// site construction and similarity measurement.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

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

// FNV-1a over a table's row-major values: order-sensitive, so equal hashes
// mean (up to collisions) identical rows in identical order.
uint64_t TableHash(const Table& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      h = (h ^ static_cast<uint64_t>(t.At(r, c))) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(DataGenTest, ContentPinnedPerTable) {
  // Recorded from the serial generator (one loop over the relations). The
  // relation tasks must draw each relation from the same RNG stream, so
  // every table keeps its exact content.
  const std::vector<std::pair<uint64_t, std::vector<uint64_t>>> want = {
      {1,
       {0x2cbc713d0b068009ull, 0x516f44d3ae9c7c2eull, 0x066f255ac8007a7full,
        0x5d211a86b56d1c60ull, 0xf3315fb85e28e884ull, 0xe3418fd22554ee61ull,
        0x25dbc9b015670d1aull, 0x0d4ca3070e550a21ull, 0xae5ae875a9248525ull,
        0x3fa866e073124c97ull, 0xdfcbf37bb3f8734bull, 0xf41f043377a85dc2ull,
        0x37bfe542fc40e220ull, 0xe6532ec4b147ec58ull, 0xdda5634f4d18f333ull,
        0x52528bc51c661d71ull, 0x432dc5bfd6c5c4afull, 0x3c3a2b3dacfa6e6bull,
        0x99a6b86706046fbaull, 0x501d432057fcfc0eull, 0x39159bc15b9cc5b9ull,
        0xe00d7e49ed90c05aull, 0x1524a49f1aae8372ull, 0xbeb644d7b598f77cull}},
      {7,
       {0x64135f4555dea227ull, 0x616379f05478a825ull, 0x09d0855a7a8d806bull,
        0x3f32e3f24e1967c9ull, 0x874e0daf180b37e1ull, 0xd16129556b92a05eull,
        0xef725fab995f20aeull, 0x208331cdd1d80d58ull, 0x0beea5b0e49227bdull,
        0xe7e98685bf8beef8ull, 0x22b04553de9bf782ull, 0x8617d1c844d98450ull,
        0x6661881379cd3d4eull, 0x6d63f42f8af457b0ull, 0xdbd61902d85e5b9full,
        0x77b94296343aa432ull, 0xb12f167113acadd0ull, 0xd579b793a92d52b8ull,
        0x75881af98d2aad16ull, 0x507bdda175628e27ull, 0xc4e62ed2936a7bd2ull,
        0x7e7e304a4f924e9bull, 0xc63cd6a88bae4905ull, 0xc09ba96a524a65beull}},
  };
  const Schema s = TpcdsSchema(0.5);
  for (const auto& [seed, hashes] : want) {
    auto db = GenerateClientDatabase(s, DataGenOptions{.seed = seed});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_EQ(hashes.size(), static_cast<size_t>(s.num_relations()));
    for (int r = 0; r < s.num_relations(); ++r) {
      EXPECT_EQ(TableHash(db->table(r)), hashes[r])
          << s.relation(r).name() << " at seed " << seed;
    }
  }
}

TEST(DataGenTest, FkIntoEmptyRelationIsAnError) {
  // At sf 1e-4 call_center has no rows, but catalog_sales references it:
  // catalog_sales is the first relation, in relation order, with such an
  // FK, and cs_call_center_sk its first.
  auto db = GenerateClientDatabase(TpcdsSchema(1e-4));
  ASSERT_EQ(db.status().code(), StatusCode::kInvalidArgument)
      << db.status().ToString();
  EXPECT_NE(db.status().message().find(
                "catalog_sales.cs_call_center_sk references call_center"),
            std::string::npos)
      << db.status().ToString();
}

TEST(DataGenTest, EmptyRelationsMayReferenceEmptyRelations) {
  // At sf 1e-6 every FK into an empty relation comes from an empty one.
  const Schema s = TpcdsSchema(1e-6);
  auto db = GenerateClientDatabase(s);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(db->CheckReferentialIntegrity().ok());
  int empty = 0;
  for (int r = 0; r < s.num_relations(); ++r) {
    EXPECT_EQ(db->RowCount(r), s.relation(r).row_count());
    if (s.relation(r).row_count() == 0) ++empty;
  }
  EXPECT_GT(empty, 0);
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
