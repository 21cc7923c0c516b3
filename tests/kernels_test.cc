// Tests for engine/kernels: scalar-vs-SIMD bit-identity of every dispatched
// kernel (over lengths that exercise the vector tails), selection-vector
// mechanics, BlockPredicate compilation semantics against
// DnfPredicate::Eval as the oracle, and the live columns a RowBlock
// carries.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "engine/kernels.h"
#include "engine/row_block.h"
#include "query/predicate.h"

namespace hydra {
namespace {

using kernels::BlockPredicate;

// Restores the global dispatch switch even when a test fails mid-body.
class SimdGuard {
 public:
  ~SimdGuard() { kernels::SetSimdEnabled(true); }
};

std::vector<Value> RandomColumn(int64_t n, uint32_t seed, Value lo = -100,
                                Value hi = 100) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Value> dist(lo, hi);
  std::vector<Value> col(n);
  for (auto& v : col) v = dist(rng);
  return col;
}

// Lengths around the 2/4/16-lane vector widths plus larger odd sizes.
const int64_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 1000, 1001};

TEST(KernelsTest, IntervalMaskMatchesScalarAcrossDispatch) {
  SimdGuard guard;
  for (const int64_t n : kLengths) {
    const std::vector<Value> col = RandomColumn(n, 42 + n);
    std::vector<uint8_t> scalar_mask(n + 1, 0xee), simd_mask(n + 1, 0xee);
    kernels::SetSimdEnabled(false);
    kernels::IntervalMask(col.data(), n, -10, 25, scalar_mask.data());
    kernels::SetSimdEnabled(true);
    kernels::IntervalMask(col.data(), n, -10, 25, simd_mask.data());
    EXPECT_EQ(scalar_mask, simd_mask) << "n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(scalar_mask[i], col[i] >= -10 && col[i] < 25 ? 1 : 0);
    }
    EXPECT_EQ(simd_mask[n], 0xee) << "wrote past the mask";

    // The OR accumulator only ever sets bytes.
    kernels::SetSimdEnabled(false);
    kernels::IntervalMaskOr(col.data(), n, 50, 90, scalar_mask.data());
    kernels::SetSimdEnabled(true);
    kernels::IntervalMaskOr(col.data(), n, 50, 90, simd_mask.data());
    EXPECT_EQ(scalar_mask, simd_mask) << "n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(scalar_mask[i], (col[i] >= -10 && col[i] < 25) ||
                                        (col[i] >= 50 && col[i] < 90)
                                    ? 1
                                    : 0);
    }
  }
}

TEST(KernelsTest, IntervalMaskExtremeBounds) {
  SimdGuard guard;
  const std::vector<Value> col = {INT64_MIN, -1, 0, 1, INT64_MAX};
  for (const bool simd : {false, true}) {
    kernels::SetSimdEnabled(simd);
    std::vector<uint8_t> mask(col.size());
    kernels::IntervalMask(col.data(), col.size(), INT64_MIN, INT64_MAX,
                          mask.data());
    EXPECT_EQ(mask, (std::vector<uint8_t>{1, 1, 1, 1, 0})) << "simd=" << simd;
    kernels::IntervalMask(col.data(), col.size(), 0, 1, mask.data());
    EXPECT_EQ(mask, (std::vector<uint8_t>{0, 0, 1, 0, 0})) << "simd=" << simd;
  }
}

TEST(KernelsTest, MaskCombineMatchesScalarAcrossDispatch) {
  SimdGuard guard;
  for (const int64_t n : kLengths) {
    std::mt19937 rng(7 + n);
    std::vector<uint8_t> a(n), b(n);
    for (int64_t i = 0; i < n; ++i) {
      a[i] = rng() & 1;
      b[i] = rng() & 1;
    }
    std::vector<uint8_t> and_scalar = a, and_simd = a;
    std::vector<uint8_t> or_scalar = a, or_simd = a;
    kernels::SetSimdEnabled(false);
    kernels::MaskAnd(and_scalar.data(), b.data(), n);
    kernels::MaskOr(or_scalar.data(), b.data(), n);
    kernels::SetSimdEnabled(true);
    kernels::MaskAnd(and_simd.data(), b.data(), n);
    kernels::MaskOr(or_simd.data(), b.data(), n);
    EXPECT_EQ(and_scalar, and_simd) << "n=" << n;
    EXPECT_EQ(or_scalar, or_simd) << "n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(and_scalar[i], a[i] & b[i]);
      EXPECT_EQ(or_scalar[i], a[i] | b[i]);
    }
  }
}

TEST(KernelsTest, MaskToSelAppendsAscendingIndices) {
  const std::vector<uint8_t> mask = {1, 0, 0, 1, 1, 0, 1};
  SelVector sel = {99};  // appends, never clears
  kernels::MaskToSel(mask.data(), static_cast<int64_t>(mask.size()), &sel);
  EXPECT_EQ(sel, (SelVector{99, 0, 3, 4, 6}));
  sel.clear();
  kernels::MaskToSel(mask.data(), 0, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(KernelsTest, GatherSupportsInPlaceCompaction) {
  const std::vector<Value> src = {10, 11, 12, 13, 14, 15};
  const SelVector sel = {0, 2, 5};
  std::vector<Value> dst(3, -1);
  kernels::Gather(src.data(), sel.data(), 3, dst.data());
  EXPECT_EQ(dst, (std::vector<Value>{10, 12, 15}));
  // In place: ascending selection reads stay ahead of writes.
  std::vector<Value> buf = src;
  kernels::Gather(buf.data(), sel.data(), 3, buf.data());
  EXPECT_EQ(buf[0], 10);
  EXPECT_EQ(buf[1], 12);
  EXPECT_EQ(buf[2], 15);
}

TEST(KernelsTest, HashKeysMatchesMixKeyAcrossDispatch) {
  SimdGuard guard;
  for (const int64_t n : kLengths) {
    const std::vector<Value> col =
        RandomColumn(n, 1234 + n, INT64_MIN / 2, INT64_MAX / 2);
    std::vector<uint64_t> scalar_hash(n), simd_hash(n);
    kernels::SetSimdEnabled(false);
    kernels::HashKeys(col.data(), n, scalar_hash.data());
    kernels::SetSimdEnabled(true);
    kernels::HashKeys(col.data(), n, simd_hash.data());
    EXPECT_EQ(scalar_hash, simd_hash) << "n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(scalar_hash[i], kernels::MixKey(col[i]));
    }
  }
}

TEST(KernelsTest, FillKernels) {
  SimdGuard guard;
  for (const int64_t n : kLengths) {
    for (const bool simd : {false, true}) {
      kernels::SetSimdEnabled(simd);
      std::vector<Value> fill(n + 1, -1);
      kernels::FillConst(fill.data(), n, INT64_MIN + 3);
      EXPECT_EQ(std::vector<Value>(fill.begin(), fill.begin() + n),
                std::vector<Value>(n, INT64_MIN + 3))
          << "n=" << n << " simd=" << simd;
      EXPECT_EQ(fill[n], -1) << "wrote past the end";
    }
  }
  kernels::SetSimdEnabled(true);
  std::vector<Value> buf(10, -1);
  kernels::FillConst(buf.data(), 10, 7);
  EXPECT_EQ(buf, std::vector<Value>(10, 7));
  kernels::FillIota(buf.data(), 10, 100);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(buf[i], 100 + i);
  kernels::FillConst(buf.data(), 0, 9);  // n = 0 is a no-op
  EXPECT_EQ(buf[0], 100);
}

RowBlock MakeBlock(const std::vector<std::vector<Value>>& columns) {
  RowBlock block(static_cast<int>(columns.size()));
  if (columns.empty()) return block;
  block.ResizeUninitialized(static_cast<int64_t>(columns[0].size()));
  for (size_t c = 0; c < columns.size(); ++c) {
    std::copy(columns[c].begin(), columns[c].end(),
              block.MutableColumn(static_cast<int>(c)));
  }
  return block;
}

TEST(BlockPredicateTest, CompilationSemantics) {
  EXPECT_TRUE(BlockPredicate().is_false());  // default = DnfPredicate() = FALSE
  EXPECT_TRUE(BlockPredicate(DnfPredicate()).is_false());
  EXPECT_TRUE(BlockPredicate(DnfPredicate::True()).is_true());
  // An atom over an empty IntervalSet kills its conjunct.
  DnfPredicate impossible = PredicateOf(Atom{0, IntervalSet{}});
  EXPECT_TRUE(BlockPredicate(impossible).is_false());
}

TEST(BlockPredicateTest, SelectRangeAgreesWithRowOracleAcrossDispatch) {
  SimdGuard guard;
  // Two conjuncts, one with a multi-interval atom:
  // (c0∈[0,40) ∧ c1∈[−50,0)) ∨ c0∈[60,70)∪[80,90).
  const IntervalSet split(std::vector<Interval>{{60, 70}, {80, 90}});
  const DnfPredicate dnf =
      PredicateAllOf({Atom{0, IntervalSet(Interval(0, 40))},
                      Atom{1, IntervalSet(Interval(-50, 0))}})
          .Or(PredicateOf(Atom{0, split}));
  const BlockPredicate pred(dnf);
  for (const int64_t n : kLengths) {
    const RowBlock block =
        MakeBlock({RandomColumn(n, 5 + n), RandomColumn(n, 6 + n)});
    SelVector expected;
    Row row(2);
    for (int64_t r = 0; r < n; ++r) {
      block.CopyRowTo(r, row.data());
      if (dnf.Eval(row)) expected.push_back(static_cast<int32_t>(r));
    }
    for (const bool simd : {false, true}) {
      kernels::SetSimdEnabled(simd);
      SelVector sel = {123};  // SelectRange clears
      pred.SelectRange(block, 0, n, &sel);
      EXPECT_EQ(sel, expected) << "n=" << n << " simd=" << simd;
      // A sub-range selects the whole block's passing rows inside it, by
      // their absolute indices.
      const int64_t begin = n / 3;
      const int64_t end = n - n / 4;
      SelVector want;
      for (const int32_t r : expected) {
        if (r >= begin && r < end) want.push_back(r);
      }
      pred.SelectRange(block, begin, end, &sel);
      EXPECT_EQ(sel, want) << "n=" << n << " simd=" << simd << " sub-range";
    }
  }
}

TEST(BlockPredicateTest, TrueAndFalseFastPaths) {
  const RowBlock block = MakeBlock({{1, 2, 3}});
  SelVector sel;
  BlockPredicate(DnfPredicate::True()).SelectRange(block, 0, 3, &sel);
  EXPECT_EQ(sel, (SelVector{0, 1, 2}));
  BlockPredicate(DnfPredicate::True()).SelectRange(block, 1, 3, &sel);
  EXPECT_EQ(sel, (SelVector{1, 2}));
  BlockPredicate().SelectRange(block, 0, 3, &sel);
  EXPECT_TRUE(sel.empty());
  // Empty batch: no rows selected regardless of the predicate.
  const RowBlock empty = MakeBlock({{}});
  BlockPredicate(DnfPredicate::True()).SelectRange(empty, 0, 0, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(RowBlockTest, ColumnarRoundTrip) {
  const RowBlock block = MakeBlock({{1, 4}, {2, 5}, {3, 6}});  // two rows
  EXPECT_EQ(block.num_rows(), 2);
  EXPECT_EQ(block.Column(0)[0], 1);
  EXPECT_EQ(block.Column(0)[1], 4);
  EXPECT_EQ(block.Column(2)[1], 6);
  Row row(3);
  block.CopyRowTo(1, row.data());
  EXPECT_EQ(row, (Row{4, 5, 6}));

  RowBlock other(3);
  other.AppendRange(block, 0, block.num_rows());
  other.AppendRange(block, 1, 1);
  EXPECT_EQ(other.num_rows(), 3);
  other.CopyRowTo(2, row.data());
  EXPECT_EQ(row, (Row{4, 5, 6}));

  other.ResizeUninitialized(1);
  EXPECT_EQ(other.num_rows(), 1);
  other.Reset(2);
  EXPECT_EQ(other.num_columns(), 2);
  EXPECT_TRUE(other.empty());
}

TEST(RowBlockTest, LiveColumnsLastUntilReset) {
  RowBlock block(3);
  for (int c = 0; c < 3; ++c) EXPECT_TRUE(block.IsLive(c));
  block.SetLiveColumns({2, 0});
  EXPECT_TRUE(block.IsLive(0));
  EXPECT_FALSE(block.IsLive(1));
  EXPECT_TRUE(block.IsLive(2));
  block.ResizeUninitialized(5);
  block.ResizeUninitialized(0);
  EXPECT_FALSE(block.IsLive(1));
  block.SetLiveColumns({});
  for (int c = 0; c < 3; ++c) EXPECT_FALSE(block.IsLive(c));
  block.Reset(4);
  for (int c = 0; c < 4; ++c) EXPECT_TRUE(block.IsLive(c));
}

}  // namespace
}  // namespace hydra
