// Determinism of parallel regeneration: HydraRegenerator::Regenerate with a
// thread pool must produce a byte-identical DatabaseSummary to the
// sequential path (each view writes its own slot; reduction is in view
// order), with per-view reports carrying the same structural fields. A
// cold run (HydraOptions::warm_start off) must produce the same summary
// too; only its pivot counts may differ.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "hydra/regenerator.h"
#include "hydra/summary_io.h"
#include "workload/datagen.h"
#include "workload/toy.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string SummaryBytes(const DatabaseSummary& summary,
                         const std::string& tag) {
  const auto path =
      (std::filesystem::temp_directory_path() / ("hydra_par_" + tag + ".bin"))
          .string();
  auto bytes = WriteSummary(summary, path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string data = FileBytes(path);
  std::filesystem::remove(path);
  return data;
}

void ExpectIdenticalRuns(const Schema& schema,
                         const std::vector<CardinalityConstraint>& ccs,
                         const std::string& tag) {
  HydraOptions sequential;
  sequential.num_threads = 1;
  HydraOptions parallel;
  parallel.num_threads = 4;
  HydraOptions cold;
  cold.warm_start = false;

  auto seq = HydraRegenerator(schema, sequential).Regenerate(ccs);
  auto par = HydraRegenerator(schema, parallel).Regenerate(ccs);
  auto cld = HydraRegenerator(schema, cold).Regenerate(ccs);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_TRUE(cld.ok()) << cld.status().ToString();

  const std::string seq_bytes = SummaryBytes(seq->summary, tag + "_seq");
  EXPECT_EQ(seq_bytes, SummaryBytes(par->summary, tag + "_par"));
  EXPECT_EQ(seq_bytes, SummaryBytes(cld->summary, tag + "_cold"));

  ASSERT_EQ(seq->views.size(), par->views.size());
  ASSERT_EQ(seq->views.size(), cld->views.size());
  for (size_t v = 0; v < seq->views.size(); ++v) {
    for (const RegenerationResult* other : {&*par, &*cld}) {
      const ViewReport& a = seq->views[v];
      const ViewReport& b = other->views[v];
      EXPECT_EQ(a.relation, b.relation);
      EXPECT_EQ(a.num_subviews, b.num_subviews);
      EXPECT_EQ(a.lp_variables, b.lp_variables);
      EXPECT_EQ(a.lp_constraints, b.lp_constraints);
      EXPECT_EQ(a.max_abs_violation, b.max_abs_violation);
      EXPECT_EQ(a.max_rel_violation, b.max_rel_violation);
    }
    // Pivot counts depend on warm starts, not on the thread count.
    EXPECT_EQ(seq->views[v].lp_iterations, par->views[v].lp_iterations);
  }
}

TEST(RegeneratorParallelTest, ToyEnvironmentDeterministic) {
  ToyEnvironment env = MakeToyEnvironment();
  ExpectIdenticalRuns(env.schema, env.ccs, "toy");
}

// A TPC-DS sf 0.5 site with 40 queries of `kind`, client seed 99.
void ExpectIdenticalTpcdsRuns(TpcdsWorkloadKind kind, uint64_t query_seed,
                              const std::string& tag) {
  Schema schema = TpcdsSchema(0.5);
  auto queries = TpcdsWorkload(schema, kind, 40, query_seed);
  auto site =
      BuildClientSite(schema, DataGenOptions{.seed = 99}, std::move(queries));
  ASSERT_TRUE(site.ok()) << site.status().ToString();
  ExpectIdenticalRuns(site->schema, site->ccs, tag);
}

TEST(RegeneratorParallelTest, TpcdsWorkloadDeterministic) {
  ExpectIdenticalTpcdsRuns(TpcdsWorkloadKind::kSimple, 515151, "tpcds");
}

TEST(RegeneratorParallelTest, TpcdsComplexWorkloadDeterministic) {
  ExpectIdenticalTpcdsRuns(TpcdsWorkloadKind::kComplex, 424242, "tpcds_wlc");
}

TEST(RegeneratorParallelTest, DefaultThreadCountMatchesSequential) {
  // num_threads = 0 (hardware concurrency) must agree with the explicit
  // settings too — this is the configuration real callers run with.
  ToyEnvironment env = MakeToyEnvironment();
  HydraOptions defaults;  // num_threads = 0
  HydraOptions sequential;
  sequential.num_threads = 1;
  auto def = HydraRegenerator(env.schema, defaults).Regenerate(env.ccs);
  auto seq = HydraRegenerator(env.schema, sequential).Regenerate(env.ccs);
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(SummaryBytes(def->summary, "def"),
            SummaryBytes(seq->summary, "seq"));
}

}  // namespace
}  // namespace hydra
