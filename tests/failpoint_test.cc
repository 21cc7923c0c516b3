// Failpoint registry and spec-grammar tests (docs/robustness.md).

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "hydra/summary_io.h"
#include "serve/scheduler.h"
#include "serve/summary_store.h"
#include "storage/disk_table.h"

namespace hydra {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoint::DisarmAll(); }
};

Status HitPoint(Failpoint& fp) {
  HYDRA_FAILPOINT(fp);
  return Status::OK();
}

TEST_F(FailpointTest, ParseOff) {
  const StatusOr<FailpointSpec> spec = FailpointSpec::Parse("off");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, FailpointSpec::Kind::kOff);
}

TEST_F(FailpointTest, ParseError) {
  const StatusOr<FailpointSpec> spec =
      FailpointSpec::Parse("error(IO_ERROR,times=2)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, FailpointSpec::Kind::kError);
  EXPECT_EQ(spec->code, StatusCode::kIoError);
  EXPECT_EQ(spec->times, 2);
  EXPECT_EQ(spec->probability, 1.0);
}

TEST_F(FailpointTest, ParseDelayWithProbability) {
  const StatusOr<FailpointSpec> spec =
      FailpointSpec::Parse("delay(7,p=0.25,seed=42)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, FailpointSpec::Kind::kDelay);
  EXPECT_EQ(spec->delay_ms, 7);
  EXPECT_DOUBLE_EQ(spec->probability, 0.25);
  EXPECT_EQ(spec->seed, 42u);
}

TEST_F(FailpointTest, ParseRejectsMalformed) {
  EXPECT_FALSE(FailpointSpec::Parse("").ok());
  EXPECT_FALSE(FailpointSpec::Parse("explode(1)").ok());
  EXPECT_FALSE(FailpointSpec::Parse("error(NOT_A_CODE)").ok());
  EXPECT_FALSE(FailpointSpec::Parse("error(IO_ERROR").ok());
  EXPECT_FALSE(FailpointSpec::Parse("delay(abc)").ok());
  EXPECT_FALSE(FailpointSpec::Parse("error(IO_ERROR,p=nope)").ok());
  EXPECT_FALSE(FailpointSpec::Parse("error(IO_ERROR,frobnicate=1)").ok());
}

TEST_F(FailpointTest, DisabledByDefaultAndZeroHits) {
  Failpoint fp("test/disabled");
  EXPECT_FALSE(fp.armed());
  EXPECT_TRUE(HitPoint(fp).ok());
  EXPECT_EQ(fp.hits(), 0u);  // HYDRA_FAILPOINT never reaches Fire()
  EXPECT_EQ(fp.triggered(), 0u);
}

TEST_F(FailpointTest, InjectsError) {
  Failpoint fp("test/error");
  ASSERT_TRUE(Failpoint::ArmFromString("test/error=error(IO_ERROR)").ok());
  EXPECT_TRUE(fp.armed());
  const Status status = HitPoint(fp);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(fp.hits(), 1u);
  EXPECT_EQ(fp.triggered(), 1u);
  fp.Disarm();
  EXPECT_FALSE(fp.armed());
  EXPECT_TRUE(HitPoint(fp).ok());
}

TEST_F(FailpointTest, TimesBudgetDisarmsItself) {
  Failpoint fp("test/times");
  ASSERT_TRUE(
      Failpoint::ArmFromString("test/times=error(UNAVAILABLE,times=2)").ok());
  EXPECT_EQ(HitPoint(fp).code(), StatusCode::kUnavailable);
  EXPECT_EQ(HitPoint(fp).code(), StatusCode::kUnavailable);
  // Budget exhausted: the point disarmed itself, restoring the fast path.
  EXPECT_FALSE(fp.armed());
  EXPECT_TRUE(HitPoint(fp).ok());
  EXPECT_EQ(fp.triggered(), 2u);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  const auto pattern = [](uint64_t seed) {
    Failpoint fp("test/probability");
    FailpointSpec spec;
    spec.kind = FailpointSpec::Kind::kError;
    spec.code = StatusCode::kInternal;
    spec.probability = 0.5;
    spec.seed = seed;
    fp.Arm(spec);
    std::string fired;
    for (int i = 0; i < 64; ++i) fired += HitPoint(fp).ok() ? '.' : 'X';
    fp.Disarm();
    return fired;
  };
  const std::string a = pattern(7);
  EXPECT_EQ(a, pattern(7));  // same seed, same schedule
  EXPECT_NE(a, pattern(8));  // different seed, different schedule
  EXPECT_NE(a.find('X'), std::string::npos);  // p=0.5 over 64: both occur
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST_F(FailpointTest, ReArmingReplaysTheProbabilitySchedule) {
  // The p= decision is keyed on the hit index since the point was armed,
  // not on its lifetime hit count: re-arming the same spec after further
  // hits replays the first arm's fire pattern.
  Failpoint fp("test/rearm");
  const auto arm_and_record = [&fp] {
    const Status armed =
        Failpoint::ArmFromString("test/rearm=error(UNAVAILABLE,p=0.5,seed=7)");
    EXPECT_TRUE(armed.ok()) << armed.ToString();
    std::string fired;
    for (int i = 0; i < 64; ++i) fired += HitPoint(fp).ok() ? '.' : 'X';
    return fired;
  };
  const std::string first = arm_and_record();
  for (int i = 0; i < 37; ++i) (void)HitPoint(fp);
  EXPECT_EQ(first, arm_and_record());
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  // hits() stays a lifetime count across the re-arm.
  EXPECT_EQ(fp.hits(), 64u + 37u + 64u);
}

TEST_F(FailpointTest, DelayBlocksForConfiguredTime) {
  Failpoint fp("test/delay");
  ASSERT_TRUE(Failpoint::ArmFromString("test/delay=delay(20)").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(HitPoint(fp).ok());  // delays never inject an error
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 20);
  EXPECT_EQ(fp.triggered(), 1u);
}

TEST_F(FailpointTest, ArmByNameBeforeRegistrationIsPending) {
  FailpointSpec spec;
  spec.kind = FailpointSpec::Kind::kError;
  spec.code = StatusCode::kUnavailable;
  Failpoint::ArmByName("test/late", spec);
  ASSERT_EQ(Failpoint::Find("test/late"), nullptr);
  Failpoint fp("test/late");  // registration applies the pending spec
  EXPECT_TRUE(fp.armed());
  EXPECT_EQ(HitPoint(fp).code(), StatusCode::kUnavailable);
}

TEST_F(FailpointTest, ArmFromStringRejectsMalformedSpecs) {
  EXPECT_FALSE(Failpoint::ArmFromString("no-equals-sign").ok());
  EXPECT_FALSE(Failpoint::ArmFromString("test/x=explode(1)").ok());
  EXPECT_FALSE(Failpoint::ArmFromString("=error(IO_ERROR)").ok());
}

TEST_F(FailpointTest, ArmFromStringArmsMultiplePoints) {
  Failpoint a("test/multi_a");
  Failpoint b("test/multi_b");
  ASSERT_TRUE(Failpoint::ArmFromString(
                  "test/multi_a=error(IO_ERROR);test/multi_b=delay(1)")
                  .ok());
  EXPECT_TRUE(a.armed());
  EXPECT_TRUE(b.armed());
  EXPECT_EQ(HitPoint(a).code(), StatusCode::kIoError);
}

TEST_F(FailpointTest, DisarmAllDisarmsEverything) {
  Failpoint fp("test/disarm_all");
  ASSERT_TRUE(Failpoint::ArmFromString("test/disarm_all=error(INTERNAL)").ok());
  EXPECT_TRUE(fp.armed());
  Failpoint::DisarmAll();
  EXPECT_FALSE(fp.armed());
  EXPECT_TRUE(HitPoint(fp).ok());
}

TEST_F(FailpointTest, LibraryPointsAreRegistered) {
  // The instrumented sites across the codebase self-register at static
  // init; spot-check the ones the chaos harness schedules against.
  // Registration runs when the defining archive member is linked, so pull
  // one symbol from each instrumented translation unit — exactly what any
  // binary that exercises these subsystems does implicitly.
  const ThreadPool pool(1);                      // thread_pool/dispatch
  const MetricScope scope("serve");
  const FairScheduler scheduler(scope, 1);       // serve/grant
  const SummaryStore store(scope, 1024);         // serve/summary_load
  EXPECT_FALSE(ReadSummary("/nonexistent").ok());      // summary_io/*
  EXPECT_FALSE(DiskTableBytes("/nonexistent").ok());   // disk_table/*
  const std::vector<std::string> names = Failpoint::ListRegistered();
  for (const char* expected :
       {"summary_io/read", "summary_io/write", "serve/summary_load",
        "serve/grant", "thread_pool/dispatch", "disk_table/open",
        "disk_table/open_shard", "disk_table/append", "disk_table/close"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing registered failpoint: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(FailpointTest, StatusCodeRoundTrip) {
  StatusCode code = StatusCode::kOk;
  EXPECT_TRUE(StatusCodeFromName("UNAVAILABLE", &code));
  EXPECT_EQ(code, StatusCode::kUnavailable);
  EXPECT_TRUE(StatusCodeFromName("DEADLINE_EXCEEDED", &code));
  EXPECT_EQ(code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(StatusCodeFromName("CANCELLED", &code));
  EXPECT_EQ(code, StatusCode::kCancelled);
  EXPECT_FALSE(StatusCodeFromName("NOT_A_CODE", &code));
}

}  // namespace
}  // namespace hydra
