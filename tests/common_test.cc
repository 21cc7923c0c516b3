// Unit tests for common/: Status, intervals, RNG, text tables, and
// ParallelFor's contract.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/interval.h"
#include "common/random.h"
#include "common/status.h"
#include "common/text_table.h"
#include "common/thread_pool.h"

namespace hydra {
namespace {

// --- Status --------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad domain");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad domain");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad domain");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  HYDRA_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseHalf(3, &out).ok());
}

// Counts how often it is copied and moved.
struct CopyCounter {
  CopyCounter() = default;
  CopyCounter(const CopyCounter& other)
      : copies(other.copies + 1), moves(other.moves) {}
  CopyCounter(CopyCounter&& other) noexcept
      : copies(other.copies), moves(other.moves + 1) {}
  int copies = 0;
  int moves = 0;
};

TEST(StatusOrTest, DereferencingAnRvalueMoves) {
  StatusOr<CopyCounter> so = CopyCounter();
  ASSERT_TRUE(so.ok());
  const int moves_held = so->moves;
  const CopyCounter taken = *std::move(so);
  EXPECT_EQ(taken.copies, 0);
  EXPECT_EQ(taken.moves, moves_held + 1);
}

// --- Interval --------------------------------------------------------------

TEST(IntervalTest, BasicProperties) {
  Interval iv(3, 8);
  EXPECT_FALSE(iv.empty());
  EXPECT_EQ(iv.Count(), 5);
  EXPECT_TRUE(iv.Contains(3));
  EXPECT_TRUE(iv.Contains(7));
  EXPECT_FALSE(iv.Contains(8));
  EXPECT_FALSE(iv.Contains(2));
  EXPECT_EQ(iv.ToString(), "[3,8)");
}

TEST(IntervalTest, EmptyWhenDegenerate) {
  EXPECT_TRUE(Interval(5, 5).empty());
  EXPECT_TRUE(Interval(6, 5).empty());
  EXPECT_EQ(Interval(6, 5).Count(), 0);
}

TEST(IntervalTest, Overlaps) {
  EXPECT_TRUE(Interval(0, 5).Overlaps(Interval(4, 10)));
  EXPECT_FALSE(Interval(0, 5).Overlaps(Interval(5, 10)));
  EXPECT_TRUE(Interval(0, 10).Overlaps(Interval(3, 4)));
}

TEST(IntervalTest, Intersect) {
  EXPECT_EQ(Interval(0, 5).Intersect(Interval(3, 9)), Interval(3, 5));
  EXPECT_TRUE(Interval(0, 3).Intersect(Interval(5, 9)).empty());
}

// --- IntervalSet -----------------------------------------------------------

TEST(IntervalSetTest, NormalizesUnsortedOverlapping) {
  IntervalSet s(std::vector<Interval>{{5, 9}, {0, 3}, {2, 6}, {12, 12}});
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval(0, 9));
}

TEST(IntervalSetTest, MergesAdjacent) {
  IntervalSet s(std::vector<Interval>{{0, 3}, {3, 6}});
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval(0, 6));
}

TEST(IntervalSetTest, CountAndContains) {
  IntervalSet s(std::vector<Interval>{{0, 3}, {10, 12}});
  EXPECT_EQ(s.Count(), 5);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(2));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_TRUE(s.Contains(11));
  EXPECT_FALSE(s.Contains(12));
  EXPECT_EQ(s.Min(), 0);
  EXPECT_EQ(s.Max(), 11);
}

TEST(IntervalSetTest, IntersectDisjointPieces) {
  IntervalSet a(std::vector<Interval>{{0, 5}, {10, 15}});
  IntervalSet b(std::vector<Interval>{{3, 12}});
  IntervalSet c = a.Intersect(b);
  ASSERT_EQ(c.intervals().size(), 2u);
  EXPECT_EQ(c.intervals()[0], Interval(3, 5));
  EXPECT_EQ(c.intervals()[1], Interval(10, 12));
}

TEST(IntervalSetTest, DifferencePunchesHole) {
  IntervalSet a(Interval(0, 10));
  IntervalSet d = a.Difference(Interval(3, 6));
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], Interval(0, 3));
  EXPECT_EQ(d.intervals()[1], Interval(6, 10));
}

TEST(IntervalSetTest, DifferenceAcrossPieces) {
  IntervalSet a(std::vector<Interval>{{0, 4}, {6, 10}});
  IntervalSet d = a.Difference(IntervalSet(std::vector<Interval>{{2, 8}}));
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], Interval(0, 2));
  EXPECT_EQ(d.intervals()[1], Interval(8, 10));
}

TEST(IntervalSetTest, DifferenceEverything) {
  IntervalSet a(Interval(0, 10));
  EXPECT_TRUE(a.Difference(Interval(0, 10)).empty());
  EXPECT_TRUE(a.Difference(Interval(-5, 20)).empty());
}

TEST(IntervalSetTest, UnionMerges) {
  IntervalSet a(Interval(0, 3));
  IntervalSet b(Interval(2, 7));
  IntervalSet u = a.Union(b);
  ASSERT_EQ(u.intervals().size(), 1u);
  EXPECT_EQ(u.Count(), 7);
}

TEST(IntervalSetTest, SplitAtInsidePiece) {
  IntervalSet a(std::vector<Interval>{{0, 4}, {6, 10}});
  auto [lo, hi] = a.SplitAt(7);
  EXPECT_EQ(lo.Count(), 5);  // [0,4) + [6,7)
  EXPECT_EQ(hi.Count(), 3);  // [7,10)
}

TEST(IntervalSetTest, SplitAtBoundaryIsClean) {
  IntervalSet a(Interval(0, 10));
  auto [lo, hi] = a.SplitAt(0);
  EXPECT_TRUE(lo.empty());
  EXPECT_EQ(hi.Count(), 10);
  auto [lo2, hi2] = a.SplitAt(10);
  EXPECT_EQ(lo2.Count(), 10);
  EXPECT_TRUE(hi2.empty());
}

// Algebraic property sweep: for random sets A, B over a small universe,
// set operations agree with element-wise evaluation.
class IntervalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetPropertyTest, OperationsMatchElementwiseSemantics) {
  Rng rng(GetParam());
  const int64_t universe = 40;
  auto random_set = [&]() {
    std::vector<Interval> ivs;
    const int pieces = static_cast<int>(rng.NextInt(0, 5));
    for (int i = 0; i < pieces; ++i) {
      const int64_t lo = rng.NextInt(0, universe);
      ivs.push_back(Interval(lo, rng.NextInt(lo, universe + 1)));
    }
    return IntervalSet(std::move(ivs));
  };
  const IntervalSet a = random_set();
  const IntervalSet b = random_set();
  const IntervalSet inter = a.Intersect(b);
  const IntervalSet diff = a.Difference(b);
  const IntervalSet uni = a.Union(b);
  for (int64_t v = -2; v < universe + 2; ++v) {
    const bool in_a = a.Contains(v);
    const bool in_b = b.Contains(v);
    EXPECT_EQ(inter.Contains(v), in_a && in_b) << "v=" << v;
    EXPECT_EQ(diff.Contains(v), in_a && !in_b) << "v=" << v;
    EXPECT_EQ(uni.Contains(v), in_a || in_b) << "v=" << v;
  }
  // Counts are consistent.
  EXPECT_EQ(inter.Count() + diff.Count(), a.Count());
  EXPECT_EQ(uni.Count(), a.Count() + b.Count() - inter.Count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

// --- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
    const int64_t v = rng.NextInt(-5, 12);
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 12);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next64(), child.Next64());
}

TEST(ZipfTest, SamplesInRangeAndSkewed) {
  Rng rng(17);
  ZipfDistribution zipf(1000, 0.9);
  int64_t low_bucket = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Sample(rng);
    ASSERT_LT(v, 1000u);
    if (v < 100) ++low_bucket;
  }
  // Under uniform, ~10% of samples would land below 100; Zipf(0.9) puts far
  // more mass on small ranks.
  EXPECT_GT(low_bucket, n / 3);
}

TEST(ZipfTest, ThetaNearZeroApproachesUniform) {
  Rng rng(18);
  ZipfDistribution zipf(100, 0.05);
  int64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 50) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.12);
}

TEST(RandomPermutationTest, IsPermutation) {
  Rng rng(4);
  const auto perm = RandomPermutation(100, rng);
  std::set<uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

// --- TextTable --------------------------------------------------------

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "rows"});
  t.AddRow({"item", "1800"});
  t.AddRow({"store_sales", "28800"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name        | rows  |"), std::string::npos);
  EXPECT_NE(out.find("| store_sales | 28800 |"), std::string::npos);
}

TEST(TextTableTest, CellFormatsDouble) {
  EXPECT_EQ(TextTable::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Cell(int64_t{42}), "42");
}

TEST(HistogramTest, RendersBars) {
  const std::string h = RenderHistogram({"a", "bb"}, {10, 5}, 10);
  EXPECT_NE(h.find("a  | ########## 10"), std::string::npos);
  EXPECT_NE(h.find("bb | ##### 5"), std::string::npos);
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3ull << 30), "3.0 GiB");
}

TEST(FormatTest, Duration) {
  EXPECT_EQ(FormatDuration(0.0005), "500 us");
  EXPECT_EQ(FormatDuration(0.25), "250.0 ms");
  EXPECT_EQ(FormatDuration(58), "58.0 s");
  EXPECT_EQ(FormatDuration(660), "11.0 min");
  EXPECT_EQ(FormatDuration(5760), "1.6 h");
}

TEST(FormatTest, Count) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(5500000), "5,500,000");
}

// --- ParallelFor -----------------------------------------------------------

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const int width : {1, 2, 3, 4}) {
    for (const int64_t count :
         {int64_t{0}, int64_t{1}, int64_t{width - 1}, int64_t{1000}}) {
      std::vector<std::atomic<int>> runs(static_cast<size_t>(count));
      ParallelFor(&pool, width, count, [&](int64_t i) { ++runs[i]; });
      for (int64_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "index " << i << " of " << count << " at width " << width;
      }
    }
  }
  // The pool-wide form covers every index too.
  std::vector<std::atomic<int>> runs(1000);
  ParallelFor(pool, 1000, [&](int i) { ++runs[i]; });
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelForTest, AtMostWidthCallsInFlight) {
  ThreadPool pool(4);
  for (const int width : {2, 3}) {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    int in_flight = 0;
    int high_water = 0;
    ParallelFor(&pool, width, 40, [&](int64_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      high_water = std::max(high_water, ++in_flight);
      cv.notify_all();
      // Rendezvous: the first `width` calls wait for each other, so the
      // width is reached; then they leave an extra call time to start, as
      // it could if more than `width` tasks were claiming.
      cv.wait_for(lock, std::chrono::seconds(5),
                  [&] { return arrived >= width; });
      cv.wait_for(lock, std::chrono::milliseconds(50),
                  [&] { return arrived > width; });
      --in_flight;
    });
    EXPECT_EQ(high_water, width) << "width " << width;
  }
}

TEST(ParallelForTest, NullPoolOrWidthOneRunsOnTheCallingThread) {
  ThreadPool pool(4);
  const std::pair<ThreadPool*, int> cases[] = {
      {nullptr, 1}, {nullptr, 4}, {&pool, 1}};
  for (const auto& [p, width] : cases) {
    std::vector<std::thread::id> ran_on;
    ParallelFor(p, width, 50, [&](int64_t) {
      ran_on.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(ran_on.size(), 50u);
    for (const std::thread::id id : ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id()) << "width " << width;
    }
  }
}

TEST(ParallelForTest, CompletionIsScopedToTheCall) {
  // An unrelated task blocks one worker on a latch. ParallelFor must return
  // without waiting for it; the latch opens after a bounded wait, so a
  // ParallelFor that waited on the whole pool fails here instead of hanging.
  // The pool is declared after the latch state, so its destructor runs the
  // latch task out before that state goes.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool released = false;
  ThreadPool pool(4);
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return released; });
    released = true;
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  std::atomic<int> calls{0};
  ParallelFor(&pool, 2, 100, [&](int64_t) { ++calls; });
  bool returned_before_release = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    returned_before_release = !released;
    released = true;
    cv.notify_all();
  }
  EXPECT_TRUE(returned_before_release)
      << "ParallelFor waited for an unrelated pool task";
  EXPECT_EQ(calls.load(), 100);
}

TEST(ParallelForTest, TrippedScopeStopsTheClaiming) {
  ThreadPool pool(4);
  ThreadPool* const pools[] = {nullptr, &pool};
  for (ThreadPool* p : pools) {
    for (const int width : {1, 4}) {
      // Tripped before the call: nothing is claimed.
      CancelToken tripped;
      tripped.Cancel();
      const CancelScope tripped_scope(&tripped, Deadline::Infinite());
      std::atomic<int64_t> calls{0};
      ParallelFor(p, width, 1000, [&](int64_t) { ++calls; }, &tripped_scope);
      EXPECT_EQ(calls.load(), 0);

      // Tripped inside call k: each task claims no index after it sees the
      // scope tripped, so at most one more call per other task starts.
      constexpr int64_t kTripAt = 10;
      CancelToken token;
      const CancelScope scope(&token, Deadline::Infinite());
      calls = 0;
      ParallelFor(
          p, width, 1000,
          [&](int64_t) {
            if (++calls == kTripAt) token.Cancel();
          },
          &scope);
      const int tasks = p == nullptr ? 1 : width;
      EXPECT_GE(calls.load(), kTripAt);
      EXPECT_LE(calls.load(), kTripAt + tasks - 1)
          << (p == nullptr ? "no pool" : "pool") << ", width " << width;
    }
  }
}

TEST(ParallelForTest, DispatchHookFiresBeforeEveryClaimedIndex) {
  // The chaos hook sits before each index a task claims, not only at task
  // start, so a delay schedule can reorder the indices of one call. Armed
  // with a zero delay it only counts.
  ASSERT_TRUE(Failpoint::ArmFromString("thread_pool/dispatch=delay(0)").ok());
  const Failpoint* point = Failpoint::Find("thread_pool/dispatch");
  ASSERT_NE(point, nullptr);
  ThreadPool pool(4);
  const uint64_t before = point->hits();
  ParallelFor(&pool, 2, 100, [](int64_t) {});
  EXPECT_GE(point->hits() - before, 100u);
  Failpoint::DisarmAll();
}

}  // namespace
}  // namespace hydra
