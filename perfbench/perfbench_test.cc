// Tests of the benchmark's own statistics and accounting code.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(StatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q = Quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  q = Quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(q[0], 1.5);
  EXPECT_DOUBLE_EQ(q[1], 4.0);
  EXPECT_DOUBLE_EQ(q[2], 12.0);
  // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
  q = Quartiles({9, 5});
  EXPECT_DOUBLE_EQ(q[0], 4.0);
  EXPECT_DOUBLE_EQ(q[1], 7.0);
  EXPECT_DOUBLE_EQ(q[2], 10.0);
}

TEST(StatsTest, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 50);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 90);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 99);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 100);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 0.9), 5);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 0.1), 1);
}

Span MakeSpan(uint64_t id, uint64_t parent, const std::string& name,
              int64_t start_ms, int64_t end_ms) {
  return Span{id, parent, name, start_ms * 1000000, end_ms * 1000000, 0};
}

TEST(StatsTest, SelfTimeIsSpanMinusChildren) {
  // root [0,100) with sequential children [10,30) and [40,90); the second
  // child has its own child [50,60).
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "bench.iteration", 0, 100),
      MakeSpan(2, 1, "lp.solve", 10, 30),
      MakeSpan(3, 1, "hydra.formulate", 40, 90),
      MakeSpan(4, 3, "lp.integerize", 50, 60),
  };
  const auto shares = WallShares(spans, 1);
  EXPECT_NEAR(shares.at(1), 0.100 - 0.020 - 0.050, 1e-12);
  EXPECT_NEAR(shares.at(2), 0.020, 1e-12);
  EXPECT_NEAR(shares.at(3), 0.050 - 0.010, 1e-12);
  EXPECT_NEAR(shares.at(4), 0.010, 1e-12);
}

TEST(StatsTest, OverlappingChildrenSplitTheirOverlap) {
  // Two parallel children [0,60) and [30,90) under a stage [0,100): the
  // stage keeps only the uncovered [90,100); the overlap [30,60) is split.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "hydra.solve_stage", 0, 100),
      MakeSpan(2, 1, "lp.solve", 0, 60),
      MakeSpan(3, 1, "lp.solve", 30, 90),
  };
  const auto shares = WallShares(spans, 1);
  EXPECT_NEAR(shares.at(1), 0.010, 1e-12);
  EXPECT_NEAR(shares.at(2), 0.030 + 0.015, 1e-12);
  EXPECT_NEAR(shares.at(3), 0.015 + 0.030, 1e-12);
}

TEST(StatsTest, ChildrenAreClippedToTheirParent) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "bench.iteration", 10, 50),
      MakeSpan(2, 1, "net.next_batch", 0, 20),
      MakeSpan(9, 0, "bench.iteration", 60, 70),  // another tree: ignored
  };
  const auto shares = WallShares(spans, 1);
  EXPECT_EQ(shares.count(9), 0u);
  EXPECT_NEAR(shares.at(2), 0.010, 1e-12);
  EXPECT_NEAR(shares.at(1), 0.030, 1e-12);
}

TEST(StatsTest, UnaccountedPlusLayersEqualsTracedWall) {
  // A nested, partly parallel tree: whatever the shape, bench (the root's
  // own time, i.e. bench.unaccounted_s) plus every layer's self time is
  // the root's duration.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "bench.iteration", 0, 1000),
      MakeSpan(2, 1, "hydra.preprocess", 5, 40),
      MakeSpan(3, 1, "hydra.formulate_stage", 40, 300),
      MakeSpan(4, 3, "hydra.formulate", 41, 200),
      MakeSpan(5, 3, "hydra.formulate", 45, 290),
      MakeSpan(6, 3, "hydra.formulate", 100, 150),
      MakeSpan(7, 1, "hydra.solve_stage", 310, 800),
      MakeSpan(8, 7, "lp.solve", 311, 700),
      MakeSpan(9, 7, "lp.integerize", 700, 760),
      MakeSpan(10, 7, "lp.solve", 320, 330),
      MakeSpan(11, 1, "engine.execute", 810, 990),
      MakeSpan(12, 11, "hydra.query_gen", 820, 900),
  };
  SpanAccounting acc;
  acc.AddIteration(spans, 1);
  double total = 0;
  for (const auto& [layer, seconds] : acc.by_layer) total += seconds;
  EXPECT_NEAR(acc.wall, 1.0, 1e-12);
  EXPECT_NEAR(total, acc.wall, 1e-9);
  EXPECT_NEAR(acc.by_layer.at("bench"), 0.005 + 0.010 + 0.010 + 0.010, 1e-9);
  EXPECT_NEAR(acc.by_layer.at("engine"), 0.180 - 0.080, 1e-9);
  EXPECT_NEAR(acc.MeanName("hydra.query_gen"), 0.080, 1e-9);
}


// The failure-accounting tests run the real workloads at a small size.
class WorkloadAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() / "perfbench_test_work";
    std::filesystem::create_directories(dir_ / "tables");
    std::filesystem::create_directories(dir_ / "traced_tables");
  }
  void TearDown() override {
    hydra::Failpoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  WorkloadConfig Small(const std::string& name) {
    auto config = BenchmarkConfig(name, dir_.string());
    EXPECT_TRUE(config.ok());
    config->scale_factor = 1;
    config->num_queries = 10;
    config->codd_factor = 1;
    config->setups = 1;
    config->min_iterations = 2;
    return *config;
  }

  std::filesystem::path dir_;
};

TEST_F(WorkloadAccountingTest, CleanRunsFailNothing) {
  for (const char* name : {"regen_wlc", "materialize_wls", "serve_wire"}) {
    auto report = RunWorkload(Small(name), 5, 0, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->attempted, 0u) << name;
    EXPECT_EQ(report->failed, 0u) << name;
  }
}

TEST_F(WorkloadAccountingTest, FailedAppendCountsOneFailedMaterialization) {
  ASSERT_TRUE(hydra::Failpoint::ArmFromString(
                  "disk_table/append=error(IO_ERROR,times=1)")
                  .ok());
  auto report = RunWorkload(Small("materialize_wls"), 5, 0, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Iteration 1: Regenerate, MaterializeToDisk (fails), query step,
  // WriteSummary. Iteration 2 adds the summary, table and query checks.
  EXPECT_EQ(report->attempted, 4u + 7u);
  EXPECT_EQ(report->failed, 1u);
  EXPECT_EQ(report->checks_failed, 0u);
}

TEST_F(WorkloadAccountingTest, FailedGrantCountsOneFailedBatch) {
  ASSERT_TRUE(
      hydra::Failpoint::ArmFromString("serve/grant=error(UNAVAILABLE,times=1)")
          .ok());
  auto report = RunWorkload(Small("serve_wire"), 5, 0, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed, 1u);
  EXPECT_EQ(report->checks_failed, 0u);
  EXPECT_GT(report->attempted, 20u);
}

TEST_F(WorkloadAccountingTest, DroppedConnectionCountsOneFailureThenResumes) {
  ASSERT_TRUE(hydra::Failpoint::ArmFromString(
                  "net/write_frame=error(IO_ERROR,times=1)")
                  .ok());
  auto report = RunWorkload(Small("serve_wire"), 5, 0, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The call whose response was dropped fails; the next round reconnects
  // and every stream after that completes and matches its reference.
  EXPECT_EQ(report->failed, 1u);
  EXPECT_EQ(report->checks_failed, 0u);
}

double MetricValue(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

bool HasMetric(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return true;
  }
  return false;
}

TEST_F(WorkloadAccountingTest, FailedRegenerationsLeaveTheirMetricsOut) {
  // No failpoint sits inside Regenerate; a constraint over no relation makes
  // every call fail (InvalidArgument from the preprocessor).
  hydra::CardinalityConstraint invalid;
  invalid.label = "no relations";
  for (const char* name : {"regen_wlc", "materialize_wls"}) {
    WorkloadConfig config = Small(name);
    config.extra_ccs.push_back(invalid);
    auto report = RunWorkload(config, 5, 0, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Two iterations, each one failed Regenerate and nothing after it.
    EXPECT_EQ(report->attempted, 2u) << name;
    EXPECT_EQ(report->failed, 2u) << name;
    EXPECT_EQ(report->checks_failed, 0u) << name;
    for (const char* metric :
         {"cpu_s", "regen_s", "query_s", "materialize_rows_per_s",
          "cc_exact_frac", "cc_abs_err_rows", "summary_bytes"}) {
      EXPECT_FALSE(HasMetric(*report, metric)) << name << " " << metric;
    }
    EXPECT_TRUE(HasMetric(*report, "setup_s")) << name;
  }
}

TEST_F(WorkloadAccountingTest, FailedBatchesLeaveTheTimingsOut) {
  ASSERT_TRUE(
      hydra::Failpoint::ArmFromString("serve/grant=error(UNAVAILABLE)").ok());
  auto report = RunWorkload(Small("serve_wire"), 5, 0, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every stream's first NextBatch fails, so no round completes.
  EXPECT_GT(report->failed, 0u);
  EXPECT_EQ(report->checks_failed, 0u);
  for (const char* metric :
       {"cpu_s", "rows_per_s", "batch_p50_ms", "batch_p90_ms"}) {
    EXPECT_FALSE(HasMetric(*report, metric)) << metric;
  }
  EXPECT_TRUE(HasMetric(*report, "setup_s"));
}

TEST_F(WorkloadAccountingTest, TracedRunsMatchThePublicCallsAndAddUp) {
  for (const char* name : {"regen_wlc", "materialize_wls", "serve_wire"}) {
    SpanRecorder recorder;
    auto report = RunWorkload(Small(name), 5, 0, &recorder);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // The identity checks (summary bytes, .tbl bytes, query results) ran.
    EXPECT_EQ(report->failed, 0u) << name;
    EXPECT_NEAR(MetricValue(*report, "bench.layer_sum_error_s"), 0, 1e-6)
        << name;
    EXPECT_GT(MetricValue(*report, "bench.traced_wall_s"), 0) << name;
    EXPECT_GT(MetricValue(*report, "lp.variables"), 0) << name;
  }
}

}  // namespace
}  // namespace perfbench
