// Tests for anonymizer/: dictionaries, schema masking, and regeneration
// from a masked schema.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "anonymizer/anonymizer.h"
#include "hydra/regenerator.h"
#include "workload/datagen.h"
#include "workload/toy.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

TEST(ValueDictionaryTest, EncodeAssignsConsecutiveCodes) {
  ValueDictionary dict;
  EXPECT_EQ(dict.Encode("red"), 0);
  EXPECT_EQ(dict.Encode("green"), 1);
  EXPECT_EQ(dict.Encode("red"), 0);  // stable
  EXPECT_EQ(dict.size(), 2);
}

TEST(ValueDictionaryTest, DecodeInvertsEncode) {
  ValueDictionary dict;
  dict.Encode("alpha");
  dict.Encode("beta");
  auto v = dict.Decode(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "beta");
  EXPECT_FALSE(dict.Decode(5).ok());
  EXPECT_FALSE(dict.Decode(-1).ok());
}

TEST(AnonymizerTest, SchemaNamesMasked) {
  ToyEnvironment env = MakeToyEnvironment();
  Anonymizer anon;
  const Schema masked = anon.AnonymizeSchema(env.schema);
  ASSERT_EQ(masked.num_relations(), env.schema.num_relations());
  for (int r = 0; r < masked.num_relations(); ++r) {
    EXPECT_EQ(masked.relation(r).name(), "r" + std::to_string(r));
    // Structure preserved.
    EXPECT_EQ(masked.relation(r).num_attributes(),
              env.schema.relation(r).num_attributes());
    EXPECT_EQ(masked.relation(r).row_count(),
              env.schema.relation(r).row_count());
  }
  EXPECT_TRUE(masked.Validate().ok());
}

TEST(AnonymizerTest, DomainsAndKeysPreserved) {
  ToyEnvironment env = MakeToyEnvironment();
  Anonymizer anon;
  const Schema masked = anon.AnonymizeSchema(env.schema);
  const int s = env.schema.RelationIndex("S");
  const int a = env.schema.relation(s).AttrIndex("A");
  EXPECT_EQ(masked.relation(s).attribute(a).domain,
            env.schema.relation(s).attribute(a).domain);
  EXPECT_EQ(masked.relation(s).PrimaryKeyIndex(),
            env.schema.relation(s).PrimaryKeyIndex());
  const int r = env.schema.RelationIndex("R");
  EXPECT_EQ(masked.relation(r).ForeignKeyIndices(),
            env.schema.relation(r).ForeignKeyIndices());
}

TEST(AnonymizerTest, RelationNameLookup) {
  ToyEnvironment env = MakeToyEnvironment();
  Anonymizer anon;
  anon.AnonymizeSchema(env.schema);
  auto name = anon.AnonymizedRelationName("S");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "r0");
  EXPECT_FALSE(anon.AnonymizedRelationName("unknown").ok());
}

TEST(AnonymizerTest, PerAttributeDictionariesIndependent) {
  Anonymizer anon;
  ValueDictionary& d1 = anon.DictionaryFor(AttrRef{0, 1});
  ValueDictionary& d2 = anon.DictionaryFor(AttrRef{0, 2});
  EXPECT_EQ(d1.Encode("x"), 0);
  EXPECT_EQ(d2.Encode("y"), 0);
  EXPECT_EQ(d1.Encode("y"), 1);
  EXPECT_EQ(&anon.DictionaryFor(AttrRef{0, 1}), &d1);
}

// Section 3.1's pipeline: the vendor regenerates from the masked schema
// and CCs whose labels the client replaced with "cc<i>" (labels embed
// relation names, which AnonymizeSchema does not see), and must get the
// summary the plain run gets, while no plain relation or attribute name
// reaches it.
void ExpectMaskedRegenerationMatchesPlain(
    const Schema& schema, const std::vector<CardinalityConstraint>& ccs) {
  Anonymizer anon;
  const Schema masked = anon.AnonymizeSchema(schema);
  ASSERT_TRUE(masked.Validate().ok());
  std::vector<CardinalityConstraint> masked_ccs = ccs;
  for (size_t i = 0; i < masked_ccs.size(); ++i) {
    masked_ccs[i].label = "cc" + std::to_string(i);
  }

  // Everything but the names carries over: row counts, attribute kinds,
  // domains and FK targets.
  ASSERT_EQ(masked.num_relations(), schema.num_relations());
  std::set<std::string> plain_names;
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    const Relation& copy = masked.relation(r);
    EXPECT_EQ(copy.row_count(), rel.row_count()) << rel.name();
    ASSERT_EQ(copy.num_attributes(), rel.num_attributes()) << rel.name();
    plain_names.insert(rel.name());
    for (int a = 0; a < rel.num_attributes(); ++a) {
      const Attribute& attr = rel.attribute(a);
      const Attribute& got = copy.attribute(a);
      EXPECT_EQ(got.kind, attr.kind) << attr.name;
      EXPECT_EQ(got.domain.lo, attr.domain.lo) << attr.name;
      EXPECT_EQ(got.domain.hi, attr.domain.hi) << attr.name;
      EXPECT_EQ(got.fk_target, attr.fk_target) << attr.name;
      plain_names.insert(attr.name);
    }
  }
  for (int r = 0; r < masked.num_relations(); ++r) {
    const Relation& rel = masked.relation(r);
    EXPECT_EQ(plain_names.count(rel.name()), 0u) << rel.name();
    for (int a = 0; a < rel.num_attributes(); ++a) {
      EXPECT_EQ(plain_names.count(rel.attribute(a).name), 0u)
          << rel.attribute(a).name;
    }
  }

  auto plain = HydraRegenerator(schema).Regenerate(ccs);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto vendor = HydraRegenerator(masked).Regenerate(masked_ccs);
  ASSERT_TRUE(vendor.ok()) << vendor.status().ToString();
  const DatabaseSummary& want = plain->summary;
  const DatabaseSummary& got = vendor->summary;
  ASSERT_EQ(got.relations.size(), want.relations.size());
  for (size_t r = 0; r < want.relations.size(); ++r) {
    const RelationSummary& w = want.relations[r];
    const RelationSummary& g = got.relations[r];
    const std::string name = schema.relation(static_cast<int>(r)).name();
    EXPECT_EQ(g.relation, w.relation) << name;
    EXPECT_EQ(g.attr_indices, w.attr_indices) << name;
    ASSERT_EQ(g.rows.size(), w.rows.size()) << name;
    for (size_t i = 0; i < w.rows.size(); ++i) {
      EXPECT_EQ(g.rows[i].values, w.rows[i].values) << name << " row " << i;
      EXPECT_EQ(g.rows[i].count, w.rows[i].count) << name << " row " << i;
    }
  }
  EXPECT_EQ(got.extra_tuples, want.extra_tuples);
}

TEST(AnonymizerPipelineTest, ToyRegeneratesTheSameSummaryMasked) {
  const ToyEnvironment env = MakeToyEnvironment();
  ExpectMaskedRegenerationMatchesPlain(env.schema, env.ccs);
}

TEST(AnonymizerPipelineTest, TpcdsRegeneratesTheSameSummaryMasked) {
  // A TPC-DS sf 4 site with 80 WLs queries, client seed 3.
  const Schema schema = TpcdsSchema(4);
  auto queries = TpcdsWorkload(schema, TpcdsWorkloadKind::kSimple, 80, 515151);
  auto site = BuildClientSite(schema, DataGenOptions{.seed = 3},
                              std::move(queries));
  ASSERT_TRUE(site.ok()) << site.status().ToString();
  ExpectMaskedRegenerationMatchesPlain(site->schema, site->ccs);
}

}  // namespace
}  // namespace hydra
