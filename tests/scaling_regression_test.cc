// Regression tests pinning the scaling properties the paper's evaluation
// depends on. These are the guardrails against re-introducing the two
// failure modes found during development: consistency-cell explosion in the
// formulator and grid-like block growth in Algorithm 2.

#include <gtest/gtest.h>

#include "common/random.h"
#include "datasynth/datasynth.h"
#include "hydra/regenerator.h"
#include "partition/region_partition.h"
#include "workload/job.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

// Shared fixture: the full WLc client site is expensive to build; do it once.
class WlcRegressionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Schema schema = TpcdsSchema(1.0);
    auto queries =
        TpcdsWorkload(schema, TpcdsWorkloadKind::kComplex, 131, 424242);
    auto site = BuildClientSite(schema, DataGenOptions{.seed = 99},
                                std::move(queries));
    ASSERT_TRUE(site.ok());
    site_ = new ClientSite(std::move(*site));
  }
  static void TearDownTestSuite() {
    delete site_;
    site_ = nullptr;
  }
  static ClientSite* site_;
};

ClientSite* WlcRegressionTest::site_ = nullptr;

TEST_F(WlcRegressionTest, HydraLpStaysSmallOnComplexWorkload) {
  HydraRegenerator hydra(site_->schema);
  auto result = hydra.Regenerate(site_->ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The formulation is deterministic, so its size is pinned exactly.
  EXPECT_EQ(result->TotalLpVariables(), 5'087u);
  // Paper scale: item ~3700, catalog_sales ~1620 region variables; here
  // catalog_sales is the largest view at 4,270.
  EXPECT_LT(result->MaxLpVariables(), 10'000u);
  for (const ViewReport& v : result->views) {
    EXPECT_LT(v.lp_constraints, 1'000u)
        << site_->schema.relation(v.relation).name()
        << ": consistency-row explosion";
  }
}

TEST_F(WlcRegressionTest, GridExplodesByOrdersOfMagnitude) {
  DataSynthRegenerator ds(site_->schema);
  auto grid = ds.CountLpVariables(site_->ccs, 1ull << 62);
  ASSERT_TRUE(grid.ok());
  HydraRegenerator hydra(site_->schema);
  auto result = hydra.Regenerate(site_->ccs);
  ASSERT_TRUE(result.ok());
  // At least one view must show the paper's multi-decade asymmetry.
  double best_ratio = 0;
  for (const ViewReport& v : result->views) {
    if (v.lp_variables == 0) continue;
    best_ratio = std::max(
        best_ratio, double((*grid)[v.relation]) / double(v.lp_variables));
  }
  EXPECT_GT(best_ratio, 1e6);
}

TEST_F(WlcRegressionTest, DataSynthCrashesOnComplexWorkload) {
  DataSynthOptions options;
  options.simplex.max_variables = 2'000'000;
  DataSynthRegenerator ds(site_->schema, options);
  auto result = ds.Regenerate(site_->ccs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(JobRegressionTest, ViewLpsBoundedAsInPaper) {
  Schema schema = JobSchema(1.0);
  auto queries = JobWorkload(schema, 260, 616161);
  auto site = BuildClientSite(schema, DataGenOptions{.seed = 99},
                              std::move(queries));
  ASSERT_TRUE(site.ok());
  HydraRegenerator hydra(site->schema);
  auto result = hydra.Regenerate(site->ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Paper Section 7.6: "typically in the few thousands, never exceeding a
  // hundred thousand".
  EXPECT_LT(result->MaxLpVariables(), 100'000u);
}

TEST(LazySplittingRegressionTest, BlocksStayFarBelowGrid) {
  // 20 narrow 4-dim probes: the naive variant would produce ~10^5 blocks.
  Rng rng(5);
  std::vector<DnfPredicate> constraints;
  for (int i = 0; i < 20; ++i) {
    Conjunct c;
    for (int d = 0; d < 4; ++d) {
      const int64_t lo = rng.NextInt(0, 900);
      c.AddAtom(AtomRange(d, lo, lo + rng.NextInt(10, 100)));
    }
    DnfPredicate p;
    p.AddConjunct(std::move(c));
    constraints.push_back(std::move(p));
  }
  const std::vector<Interval> domains(4, Interval(0, 1000));
  const RegionPartition partition =
      BuildRegionPartition(domains, constraints);
  uint64_t blocks = 0;
  for (const Region& r : partition.regions) blocks += r.blocks.size();
  EXPECT_LT(blocks, 5'000u);
  EXPECT_LT(partition.num_regions(), 300);

  // And it must still be semantically identical to the naive partition:
  // sampled points carry the same constraint signature under both.
  RegionPartitionOptions naive;
  naive.lazy_constraint_tracking = false;
  const RegionPartition eager =
      BuildRegionPartition(domains, constraints, naive);
  EXPECT_EQ(partition.num_regions(), eager.num_regions())
      << "label sets must agree";
  Rng probe(17);
  for (int i = 0; i < 200; ++i) {
    Row pt = {probe.NextInt(0, 1000), probe.NextInt(0, 1000),
              probe.NextInt(0, 1000), probe.NextInt(0, 1000)};
    const int lazy_region = partition.RegionOf(pt);
    const int eager_region = eager.RegionOf(pt);
    ASSERT_GE(lazy_region, 0);
    ASSERT_GE(eager_region, 0);
    EXPECT_EQ(partition.regions[lazy_region].label,
              eager.regions[eager_region].label);
  }
}

TEST(SummarySizeRegressionTest, IndependentOfWorkloadDataScale) {
  // Build the same workload at two data scales; the summary byte size must
  // track the WORKLOAD, not the data.
  uint64_t sizes[2] = {0, 0};
  int i = 0;
  for (double sf : {0.5, 8.0}) {
    Schema schema = TpcdsSchema(sf);
    auto queries =
        TpcdsWorkload(schema, TpcdsWorkloadKind::kSimple, 30, 777);
    auto site = BuildClientSite(schema, DataGenOptions{.seed = 3},
                                std::move(queries));
    ASSERT_TRUE(site.ok());
    HydraRegenerator hydra(site->schema);
    auto result = hydra.Regenerate(site->ccs);
    ASSERT_TRUE(result.ok());
    sizes[i++] = result->summary.ByteSize();
  }
  // 16x more data; allow 4x summary growth (plan shapes shift slightly).
  EXPECT_LT(sizes[1], sizes[0] * 4);
}

}  // namespace
}  // namespace hydra
