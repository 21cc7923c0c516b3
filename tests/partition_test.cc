// Unit + property tests for partition/: region partitioning (Algorithms 1&2)
// and grid partitioning.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "partition/grid_partition.h"
#include "partition/region_partition.h"

namespace hydra {
namespace {

// The "Person" example of Section 3.2 / Figure 3: age × salary domain with
//   C0: age < 40 ∧ salary < 40   (cardinality 1000)
//   C1: 20 <= age < 60 ∧ 20 <= salary < 60   (cardinality 2000)
// Domains scaled to [0,100) x [0,100).
std::vector<DnfPredicate> PersonConstraints() {
  return {
      PredicateAllOf({AtomLess(0, 40), AtomLess(1, 40)}),
      PredicateAllOf({AtomRange(0, 20, 60), AtomRange(1, 20, 60)}),
  };
}

std::vector<Interval> PersonDomains() {
  return {Interval(0, 100), Interval(0, 100)};
}

TEST(RegionPartitionTest, PaperExampleHasFourRegions) {
  // Figure 3b: region partitioning needs exactly 4 variables where the grid
  // needs 16 cells (plus the implicit whole-domain region).
  const RegionPartition p =
      BuildRegionPartition(PersonDomains(), PersonConstraints());
  EXPECT_EQ(p.num_regions(), 4);
}

TEST(GridPartitionTest, PaperExampleHasSixteenCells) {
  const GridPartition g =
      BuildGridPartition(PersonDomains(), PersonConstraints());
  EXPECT_EQ(g.NumIntervals(0), 4);  // cuts at 20, 40, 60
  EXPECT_EQ(g.NumIntervals(1), 4);
  EXPECT_EQ(g.NumCellsCapped(1000), 16u);
}

TEST(RegionPartitionTest, RegionsCoverDomainDisjointly) {
  const RegionPartition p =
      BuildRegionPartition(PersonDomains(), PersonConstraints());
  uint64_t total = 0;
  for (const Region& r : p.regions) {
    total += r.PointCountCapped(UINT64_MAX / 2);
  }
  EXPECT_EQ(total, 100u * 100u);
  // Spot-check disjointness via membership of sampled points.
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Row pt = {rng.NextInt(0, 100), rng.NextInt(0, 100)};
    int owners = 0;
    for (const Region& r : p.regions) {
      for (const Block& b : r.blocks) {
        if (b.ContainsPoint(pt)) ++owners;
      }
    }
    EXPECT_EQ(owners, 1) << "point (" << pt[0] << "," << pt[1] << ")";
  }
}

TEST(RegionPartitionTest, LabelsMatchConstraintSatisfaction) {
  const auto constraints = PersonConstraints();
  const RegionPartition p =
      BuildRegionPartition(PersonDomains(), constraints);
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const Row pt = {rng.NextInt(0, 100), rng.NextInt(0, 100)};
    const int region = p.RegionOf(pt);
    ASSERT_GE(region, 0);
    for (size_t ci = 0; ci < constraints.size(); ++ci) {
      EXPECT_EQ(p.regions[region].SatisfiesConstraint(static_cast<int>(ci)),
                constraints[ci].Eval(pt))
          << "point (" << pt[0] << "," << pt[1] << ") constraint " << ci;
    }
  }
}

TEST(RegionPartitionTest, NoConstraintsGivesSingleRegion) {
  const RegionPartition p =
      BuildRegionPartition({Interval(0, 50)}, {});
  ASSERT_EQ(p.num_regions(), 1);
  EXPECT_TRUE(p.regions[0].label.empty());
  EXPECT_EQ(p.regions[0].PointCountCapped(1000), 50u);
}

TEST(RegionPartitionTest, DnfConstraintSplitsCorrectly) {
  // ((c0 <= 20) ∧ (c1 > 30)) ∨ (c0 > 50) — the Section 4.2 example.
  Conjunct c1;
  c1.AddAtom(AtomLessEqual(0, 20));
  c1.AddAtom(AtomGreater(1, 30));
  Conjunct c2;
  c2.AddAtom(AtomGreater(0, 50));
  DnfPredicate dnf;
  dnf.AddConjunct(c1);
  dnf.AddConjunct(c2);
  const std::vector<Interval> domains = {Interval(0, 100), Interval(0, 100)};
  const RegionPartition p = BuildRegionPartition(domains, {dnf});
  ASSERT_EQ(p.num_regions(), 2);  // satisfied / not satisfied
  // Check the split is semantically exact on every 5th point.
  for (Value x = 0; x < 100; x += 5) {
    for (Value y = 0; y < 100; y += 5) {
      const Row pt = {x, y};
      const int region = p.RegionOf(pt);
      ASSERT_GE(region, 0);
      EXPECT_EQ(p.regions[region].SatisfiesConstraint(0), dnf.Eval(pt));
    }
  }
}

TEST(RegionPartitionTest, NotEqualAtomCreatesHole) {
  DnfPredicate dnf = PredicateOf(AtomNotEqual(0, 5));
  const RegionPartition p =
      BuildRegionPartition({Interval(0, 10)}, {dnf});
  ASSERT_EQ(p.num_regions(), 2);
  const int hole = p.RegionOf({5});
  const int rest = p.RegionOf({4});
  EXPECT_NE(hole, rest);
  EXPECT_EQ(p.regions[hole].PointCountCapped(100), 1u);
  EXPECT_EQ(p.regions[rest].PointCountCapped(100), 9u);
}

TEST(BlockTest, MinPointAndCount) {
  Block b;
  b.dims.push_back(IntervalSet(std::vector<Interval>{{5, 8}, {10, 12}}));
  b.dims.push_back(IntervalSet(Interval(2, 4)));
  EXPECT_EQ(b.MinPoint(), (Row{5, 2}));
  EXPECT_EQ(b.PointCountCapped(1000), 10u);  // 5 * 2
  EXPECT_FALSE(b.empty());
  EXPECT_TRUE(b.ContainsPoint({11, 3}));
  EXPECT_FALSE(b.ContainsPoint({8, 3}));
}

TEST(BlockTest, PointCountSaturates) {
  Block b;
  b.dims.push_back(IntervalSet(Interval(0, 1000000)));
  b.dims.push_back(IntervalSet(Interval(0, 1000000)));
  EXPECT_EQ(b.PointCountCapped(500), 500u);
}

TEST(ValidBlocksTest, SingleConjunctTwoBlocks) {
  Conjunct c;
  c.AddAtom(AtomRange(0, 3, 7));
  const auto blocks = BuildValidBlocks({Interval(0, 10)}, {c});
  EXPECT_EQ(blocks.size(), 2u);
}

TEST(ValidBlocksTest, BlocksAreValidWrtEveryConjunct) {
  Rng rng(7);
  std::vector<Conjunct> conjuncts;
  for (int i = 0; i < 5; ++i) {
    Conjunct c;
    const int64_t lo = rng.NextInt(0, 30);
    c.AddAtom(AtomRange(0, lo, rng.NextInt(lo + 1, 31)));
    const int64_t lo2 = rng.NextInt(0, 30);
    c.AddAtom(AtomRange(1, lo2, rng.NextInt(lo2 + 1, 31)));
    conjuncts.push_back(std::move(c));
  }
  const std::vector<Interval> domains = {Interval(0, 30), Interval(0, 30)};
  const auto blocks = BuildValidBlocks(domains, conjuncts);
  // Validity (Definition 4.2): within a block every point satisfies the same
  // conjuncts. Exhaustive check over the small domain.
  for (const Block& b : blocks) {
    const Row rep = b.MinPoint();
    std::vector<bool> sig;
    for (const Conjunct& c : conjuncts) sig.push_back(c.Eval(rep));
    for (Value x = 0; x < 30; ++x) {
      for (Value y = 0; y < 30; ++y) {
        const Row pt = {x, y};
        if (!b.ContainsPoint(pt)) continue;
        for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
          ASSERT_EQ(conjuncts[ci].Eval(pt), sig[ci])
              << "block " << b.ToString() << " point " << x << "," << y;
        }
      }
    }
  }
}

TEST(BlockBoundariesTest, InteriorConstraintEdges) {
  RegionPartition p =
      BuildRegionPartition({Interval(0, 100)},
                           {PredicateOf(AtomRange(0, 30, 70))});
  const auto cuts = BlockBoundaries(p, 0);
  EXPECT_EQ(cuts, (std::vector<int64_t>{30, 70}));
}

// --- Optimality: the region count equals the number of distinct constraint
// signatures realized over the domain (Lemma 4.3), verified exhaustively on
// random instances.
class RegionOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegionOptimalityTest, RegionCountEqualsDistinctSignatures) {
  Rng rng(GetParam() * 101 + 3);
  const int dims = static_cast<int>(rng.NextInt(1, 4));
  const int64_t width = rng.NextInt(6, 16);
  std::vector<Interval> domains(dims, Interval(0, width));
  std::vector<DnfPredicate> constraints;
  const int num_constraints = static_cast<int>(rng.NextInt(1, 5));
  for (int i = 0; i < num_constraints; ++i) {
    DnfPredicate p;
    const int conjuncts = static_cast<int>(rng.NextInt(1, 3));
    for (int j = 0; j < conjuncts; ++j) {
      Conjunct c;
      const int atoms = static_cast<int>(rng.NextInt(1, dims + 1));
      for (int a = 0; a < atoms; ++a) {
        const int col = static_cast<int>(rng.NextInt(0, dims));
        const int64_t lo = rng.NextInt(0, width);
        c.AddAtom(AtomRange(col, lo, rng.NextInt(lo + 1, width + 1)));
      }
      p.AddConjunct(std::move(c));
    }
    constraints.push_back(std::move(p));
  }

  const RegionPartition partition =
      BuildRegionPartition(domains, constraints);

  // Enumerate the full domain, collect signatures, check region membership.
  std::set<std::vector<bool>> signatures;
  std::vector<int64_t> region_counts(partition.num_regions(), 0);
  Row pt(dims, 0);
  const int64_t total = [&] {
    int64_t t = 1;
    for (int d = 0; d < dims; ++d) t *= width;
    return t;
  }();
  for (int64_t idx = 0; idx < total; ++idx) {
    int64_t rest = idx;
    for (int d = 0; d < dims; ++d) {
      pt[d] = rest % width;
      rest /= width;
    }
    std::vector<bool> sig;
    for (const DnfPredicate& c : constraints) sig.push_back(c.Eval(pt));
    signatures.insert(sig);
    const int region = partition.RegionOf(pt);
    ASSERT_GE(region, 0);
    ++region_counts[region];
    // Membership agrees with the label.
    for (size_t ci = 0; ci < constraints.size(); ++ci) {
      ASSERT_EQ(partition.regions[region].SatisfiesConstraint(
                    static_cast<int>(ci)),
                sig[ci]);
    }
  }
  // Optimal: one region per realized signature (Lemma 4.3).
  EXPECT_EQ(partition.num_regions(),
            static_cast<int>(signatures.size()));
  // Region point counts match the exhaustive census.
  for (int r = 0; r < partition.num_regions(); ++r) {
    EXPECT_EQ(partition.regions[r].PointCountCapped(UINT64_MAX / 2),
              static_cast<uint64_t>(region_counts[r]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionOptimalityTest,
                         ::testing::Range<uint64_t>(0, 30));

// --- Grid ---------------------------------------------------------------

TEST(GridPartitionTest, BoundariesFromConstants) {
  const GridPartition g = BuildGridPartition(
      {Interval(0, 100)}, {PredicateOf(AtomRange(0, 30, 70))});
  EXPECT_EQ(g.boundaries[0], (std::vector<int64_t>{0, 30, 70, 100}));
  EXPECT_EQ(g.NumIntervals(0), 3);
}

TEST(GridPartitionTest, OutOfDomainConstantsClipped) {
  const GridPartition g = BuildGridPartition(
      {Interval(0, 100)}, {PredicateOf(AtomLess(0, 40))});
  // AtomLess uses the kValueMin sentinel; only 40 lands inside the domain.
  EXPECT_EQ(g.boundaries[0], (std::vector<int64_t>{0, 40, 100}));
}

TEST(GridPartitionTest, CellsSaturate) {
  std::vector<Interval> domains(8, Interval(0, 1000000));
  std::vector<DnfPredicate> constraints;
  for (int d = 0; d < 8; ++d) {
    for (int k = 1; k <= 30; ++k) {
      constraints.push_back(
          PredicateOf(AtomRange(d, k * 1000, k * 1000 + 500)));
    }
  }
  const GridPartition g = BuildGridPartition(domains, constraints);
  // 61 intervals per dimension; 61^8 ≈ 1.9e14 saturates any sane cap.
  EXPECT_EQ(g.NumCellsCapped(1000000), 1000000u);
}

TEST(GridPartitionTest, CellRoundTrip) {
  const GridPartition g = BuildGridPartition(
      {Interval(0, 10), Interval(0, 10)},
      {PredicateAllOf({AtomRange(0, 3, 7), AtomRange(1, 5, 8)})});
  const uint64_t cells = g.NumCellsCapped(1000);
  for (uint64_t cell = 0; cell < cells; ++cell) {
    const auto index = g.DecodeCell(cell);
    const Row pt = g.CellMinPoint(index);
    EXPECT_EQ(g.CellOf(pt), cell);
  }
}

TEST(GridPartitionTest, CellOfInteriorPoints) {
  const GridPartition g = BuildGridPartition(
      {Interval(0, 10)}, {PredicateOf(AtomRange(0, 4, 6))});
  // Intervals: [0,4) [4,6) [6,10).
  EXPECT_EQ(g.CellOf({0}), 0u);
  EXPECT_EQ(g.CellOf({3}), 0u);
  EXPECT_EQ(g.CellOf({4}), 1u);
  EXPECT_EQ(g.CellOf({5}), 1u);
  EXPECT_EQ(g.CellOf({9}), 2u);
}

// Region vs grid: region partitioning never produces more variables than the
// grid over the same constraints (the paper's core complexity claim).
class RegionVsGridTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegionVsGridTest, RegionCountNeverExceedsGridCells) {
  Rng rng(GetParam() * 53 + 11);
  const int dims = static_cast<int>(rng.NextInt(1, 4));
  std::vector<Interval> domains(dims, Interval(0, 60));
  std::vector<DnfPredicate> constraints;
  for (int i = 0; i < 4; ++i) {
    Conjunct c;
    for (int d = 0; d < dims; ++d) {
      if (rng.NextBool(0.7)) {
        const int64_t lo = rng.NextInt(0, 59);
        c.AddAtom(AtomRange(d, lo, rng.NextInt(lo + 1, 61)));
      }
    }
    if (c.atoms.empty()) c.AddAtom(AtomRange(0, 10, 20));
    DnfPredicate p;
    p.AddConjunct(std::move(c));
    constraints.push_back(std::move(p));
  }
  const RegionPartition regions = BuildRegionPartition(domains, constraints);
  const GridPartition grid = BuildGridPartition(domains, constraints);
  EXPECT_LE(static_cast<uint64_t>(regions.num_regions()),
            grid.NumCellsCapped(UINT64_MAX / 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionVsGridTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace hydra
