// Randomized end-to-end property tests: for randomly generated schemas,
// client databases and workloads, the full Hydra pipeline must (a) run,
// (b) keep referential integrity, and (c) reproduce every extracted CC
// within a small relative error.

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "view_oracle.h"
#include "workload/querygen.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

// A random star/snowflake schema: 1-2 levels of dimensions under 1-2 facts.
Schema RandomSchema(Rng& rng) {
  Schema s;
  const int num_leaf_dims = static_cast<int>(rng.NextInt(1, 4));
  std::vector<int> leaves;
  for (int i = 0; i < num_leaf_dims; ++i) {
    Relation d("leaf" + std::to_string(i),
               static_cast<uint64_t>(rng.NextInt(20, 200)));
    d.AddPrimaryKey("pk");
    const int attrs = static_cast<int>(rng.NextInt(1, 4));
    for (int a = 0; a < attrs; ++a) {
      const int64_t width = rng.NextInt(8, 120);
      d.AddDataAttribute("x" + std::to_string(a), Interval(0, width));
    }
    leaves.push_back(s.AddRelation(std::move(d)));
  }
  // Mid-level dimension referencing a random leaf (snowflake).
  std::vector<int> mids = leaves;
  if (rng.NextBool(0.7)) {
    Relation m("mid", static_cast<uint64_t>(rng.NextInt(50, 400)));
    m.AddPrimaryKey("pk");
    m.AddForeignKey("leaf_fk", leaves[rng.NextBounded(leaves.size())]);
    const int attrs = static_cast<int>(rng.NextInt(1, 3));
    for (int a = 0; a < attrs; ++a) {
      m.AddDataAttribute("y" + std::to_string(a),
                         Interval(0, rng.NextInt(8, 60)));
    }
    mids.push_back(s.AddRelation(std::move(m)));
  }
  // Fact referencing a subset of dims.
  Relation f("fact", static_cast<uint64_t>(rng.NextInt(500, 4000)));
  f.AddPrimaryKey("pk");
  int fk_count = 0;
  for (int dim : mids) {
    if (fk_count < 3 && rng.NextBool(0.8)) {
      f.AddForeignKey("fk" + std::to_string(dim), dim);
      ++fk_count;
    }
  }
  if (fk_count == 0) f.AddForeignKey("fk0", mids[0]);
  const int attrs = static_cast<int>(rng.NextInt(1, 4));
  for (int a = 0; a < attrs; ++a) {
    f.AddDataAttribute("z" + std::to_string(a),
                       Interval(0, rng.NextInt(10, 300)));
  }
  s.AddRelation(std::move(f));
  HYDRA_CHECK_OK(s.Validate());
  return s;
}

std::vector<Query> RandomWorkload(const Schema& schema, Rng& rng) {
  FilterGenOptions filter_options;
  filter_options.dnf_probability = 0.2;
  filter_options.in_probability = 0.2;
  std::vector<Query> queries;
  const int n = static_cast<int>(rng.NextInt(2, 7));
  const int fact = schema.RelationIndex("fact");
  for (int qi = 0; qi < n; ++qi) {
    Query q;
    q.name = "rq" + std::to_string(qi);
    q.tables.push_back(QueryTable{fact, DnfPredicate::True()});
    const Relation& rel = schema.relation(fact);
    std::vector<int> fks = rel.ForeignKeyIndices();
    for (int fk : fks) {
      if (rng.NextBool(0.6)) {
        JoinPkSide(&q, 0, fk, rel.attribute(fk).fk_target);
      }
    }
    int filters = static_cast<int>(rng.NextInt(1, 4));
    int attempts = 0;
    while (filters > 0 && attempts++ < 16) {
      const size_t t = rng.NextBounded(q.tables.size());
      const Relation& trel = schema.relation(q.tables[t].relation);
      const auto data_attrs = trel.DataAttrIndices();
      if (data_attrs.empty()) continue;
      AddFilter(&q.tables[t],
                RandomFilter(trel,
                             data_attrs[rng.NextBounded(data_attrs.size())],
                             rng, filter_options));
      --filters;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, RegeneratedDatabaseReproducesAllCcs) {
  Rng rng(GetParam() * 7919 + 2);
  const Schema schema = RandomSchema(rng);
  auto site = BuildClientSite(schema, DataGenOptions{.seed = rng.Next64()},
                              RandomWorkload(schema, rng));
  ASSERT_TRUE(site.ok()) << site.status().ToString();

  HydraRegenerator hydra(site->schema);
  auto result = hydra.Regenerate(site->ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->CheckReferentialIntegrity().ok());

  auto report = MeasureVolumetricSimilarity(*site, *db);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Integerization noise plus referential additions stay well under the
  // paper's 10% band — with an absolute floor of a few tuples, since the
  // additive referential-integrity error is a fixed number of rows and can
  // dominate the *relative* error of tiny-cardinality CCs (Section 5.3).
  int fine = 0;
  for (const SimilarityEntry& e : report->entries) {
    const double want = static_cast<double>(e.client_cardinality);
    const double got = static_cast<double>(e.vendor_cardinality);
    if (std::fabs(got - want) <= std::max(4.0, 0.1 * want)) ++fine;
  }
  EXPECT_GE(static_cast<double>(fine) / report->entries.size(), 0.95)
      << "max error " << report->MaxAbsError();
  for (const SimilarityEntry& e : report->entries) {
    EXPECT_GE(e.signed_relative_error, -0.05) << e.label;
  }
}

TEST_P(PipelinePropertyTest, DynamicAndStaticGenerationAgree) {
  Rng rng(GetParam() * 104729 + 5);
  const Schema schema = RandomSchema(rng);
  auto site = BuildClientSite(schema, DataGenOptions{.seed = rng.Next64()},
                              RandomWorkload(schema, rng));
  ASSERT_TRUE(site.ok());
  HydraRegenerator hydra(site->schema);
  auto result = hydra.Regenerate(site->ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  TupleGenerator gen(result->summary);
  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());
  for (int r = 0; r < site->schema.num_relations(); ++r) {
    ASSERT_EQ(gen.RowCount(r), db->RowCount(r));
    // Random access agrees with materialized rows at probe positions.
    Row row;
    const int64_t n = static_cast<int64_t>(gen.RowCount(r));
    for (int64_t probe = 0; probe < n;
         probe += std::max<int64_t>(1, n / 13)) {
      gen.GetTuple(r, probe, &row);
      for (int c = 0; c < db->table(r).num_columns(); ++c) {
        ASSERT_EQ(row[c], db->table(r).At(probe, c))
            << "relation " << r << " tuple " << probe << " col " << c;
      }
    }
  }
}

TEST_P(PipelinePropertyTest, ViewSummariesMeetCcsWithinResidual) {
  // The site of RegeneratedDatabaseReproducesAllCcs, checked view by view.
  Rng rng(GetParam() * 7919 + 2);
  const Schema schema = RandomSchema(rng);
  auto site = BuildClientSite(schema, DataGenOptions{.seed = rng.Next64()},
                              RandomWorkload(schema, rng));
  ASSERT_TRUE(site.ok()) << site.status().ToString();
  ExpectViewCcsWithinResidual(site->schema, site->ccs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace hydra
