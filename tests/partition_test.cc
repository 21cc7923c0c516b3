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

// --- Reference oracle: Algorithms 1-2 as a plain constraint-by-constraint
// sweep, labelled by evaluating every constraint at each block's smallest
// point. BuildRegionPartition must return exactly its regions: the same
// labels, the same blocks in the same order, the same interval bounds.

std::vector<Block> ReferenceValidBlocks(
    const std::vector<Interval>& domains,
    const std::vector<Conjunct>& sub_constraints, bool lazy) {
  const int n = static_cast<int>(domains.size());
  const size_t m = sub_constraints.size();
  struct PendingBlock {
    Block block;
    std::vector<bool> inside;
  };
  Block universe;
  for (const Interval& d : domains) universe.dims.push_back(IntervalSet(d));
  std::vector<PendingBlock> blocks;
  if (!universe.empty()) {
    blocks.push_back({std::move(universe), std::vector<bool>(m, true)});
  }
  for (int dim = 0; dim < n; ++dim) {
    for (size_t k = 0; k < m; ++k) {
      const Conjunct& c = sub_constraints[k];
      if (!c.Mentions(dim)) continue;
      const IntervalSet restriction = c.RestrictTo(dim, domains[dim]);
      std::vector<PendingBlock> next;
      for (PendingBlock& pb : blocks) {
        if (lazy && !pb.inside[k]) {
          next.push_back(std::move(pb));
          continue;
        }
        const IntervalSet inside = pb.block.dims[dim].Intersect(restriction);
        if (inside.empty()) {
          pb.inside[k] = false;
          next.push_back(std::move(pb));
          continue;
        }
        if (inside == pb.block.dims[dim]) {
          next.push_back(std::move(pb));
          continue;
        }
        PendingBlock b_plus;
        b_plus.block = pb.block;
        b_plus.block.dims[dim] = inside;
        b_plus.inside = pb.inside;
        PendingBlock b_minus = std::move(pb);
        b_minus.block.dims[dim] =
            b_minus.block.dims[dim].Difference(restriction);
        b_minus.inside[k] = false;
        next.push_back(std::move(b_plus));
        next.push_back(std::move(b_minus));
      }
      blocks = std::move(next);
    }
  }
  std::vector<Block> out;
  for (PendingBlock& pb : blocks) out.push_back(std::move(pb.block));
  return out;
}

std::vector<Conjunct> SubConstraints(
    const std::vector<DnfPredicate>& constraints) {
  std::vector<Conjunct> sub_constraints;
  for (const DnfPredicate& p : constraints) {
    for (const Conjunct& c : p.conjuncts()) {
      if (!c.atoms.empty()) sub_constraints.push_back(c);
    }
  }
  return sub_constraints;
}

RegionPartition ReferencePartition(const std::vector<Interval>& domains,
                                   const std::vector<DnfPredicate>& constraints,
                                   bool lazy) {
  std::vector<Block> blocks =
      ReferenceValidBlocks(domains, SubConstraints(constraints), lazy);
  RegionPartition partition;
  partition.domains = domains;
  std::map<std::vector<int>, int> label_to_region;
  for (Block& b : blocks) {
    const Row point = b.MinPoint();
    std::vector<int> label;
    for (size_t ci = 0; ci < constraints.size(); ++ci) {
      if (constraints[ci].Eval(point)) label.push_back(static_cast<int>(ci));
    }
    auto [it, inserted] =
        label_to_region.emplace(label, partition.num_regions());
    if (inserted) {
      Region region;
      region.label = label;
      partition.regions.push_back(std::move(region));
    }
    partition.regions[it->second].blocks.push_back(std::move(b));
  }
  return partition;
}

// A random atom on `column`: ranges, one-sided comparisons (whose sentinels
// lie past any domain), equality, != and IN, with constants that may fall
// outside `domain`.
Atom RandomAtom(int column, const Interval& domain, Rng& rng) {
  const auto value = [&] { return rng.NextInt(domain.lo - 3, domain.hi + 3); };
  switch (rng.NextInt(0, 6)) {
    case 0: {
      const int64_t lo = value();
      return AtomRange(column, lo, rng.NextInt(lo, domain.hi + 8));
    }
    case 1:
      return AtomLess(column, value());
    case 2:
      return AtomGreaterEqual(column, value());
    case 3:
      return AtomEqual(column, value());
    case 4:
      return AtomNotEqual(column, value());
    default: {
      std::vector<Value> values;
      const int count = static_cast<int>(rng.NextInt(1, 5));
      for (int i = 0; i < count; ++i) values.push_back(value());
      return AtomIn(column, values);
    }
  }
}

// Random DNF constraints over `domains`, with empty (TRUE) conjuncts like
// the ones BuildEdge makes and, rarely, a FALSE predicate.
std::vector<DnfPredicate> RandomConstraints(
    const std::vector<Interval>& domains, Rng& rng) {
  const int dims = static_cast<int>(domains.size());
  std::vector<DnfPredicate> constraints;
  const int count = static_cast<int>(rng.NextInt(0, 10));
  for (int i = 0; i < count; ++i) {
    DnfPredicate p;
    const int conjuncts =
        rng.NextBool(0.03) ? 0 : static_cast<int>(rng.NextInt(1, 4));
    for (int j = 0; j < conjuncts; ++j) {
      Conjunct c;
      if (!rng.NextBool(0.15)) {
        const int atoms = static_cast<int>(rng.NextInt(1, dims + 2));
        for (int a = 0; a < atoms; ++a) {
          const int col = static_cast<int>(rng.NextInt(0, dims));
          c.AddAtom(RandomAtom(col, domains[col], rng));
        }
      }
      p.AddConjunct(std::move(c));
    }
    constraints.push_back(std::move(p));
  }
  return constraints;
}

void ExpectSameBlocks(const std::vector<Block>& got,
                      const std::vector<Block>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t b = 0; b < want.size(); ++b) {
    ASSERT_EQ(got[b].dims.size(), want[b].dims.size()) << where;
    for (size_t d = 0; d < want[b].dims.size(); ++d) {
      ASSERT_EQ(got[b].dims[d].intervals(), want[b].dims[d].intervals())
          << where << " block " << b << ": " << got[b].ToString() << " vs "
          << want[b].ToString();
    }
  }
}

TEST(RegionPartitionOracleTest, MatchesTheReferenceSweepExactly) {
  int cases = 0;
  for (uint64_t seed = 0; seed < 3000; ++seed) {
    Rng rng(seed * 7919 + 17);
    const bool lazy = seed % 3 != 0;
    // The naive sweep refines towards the full grid: keep it to 2 dims.
    const int dims = static_cast<int>(rng.NextInt(1, lazy ? 5 : 3));
    std::vector<Interval> domains;
    for (int d = 0; d < dims; ++d) {
      const int64_t lo = rng.NextInt(-5, 6);
      const int64_t width = rng.NextBool(0.02) ? 0 : rng.NextInt(1, 40);
      domains.push_back(Interval(lo, lo + width));
    }
    const std::vector<DnfPredicate> constraints =
        RandomConstraints(domains, rng);
    RegionPartitionOptions options;
    options.lazy_constraint_tracking = lazy;
    const std::string where = "seed " + std::to_string(seed);

    ExpectSameBlocks(
        BuildValidBlocks(domains, SubConstraints(constraints), options),
        ReferenceValidBlocks(domains, SubConstraints(constraints), lazy),
        where);
    const RegionPartition got =
        BuildRegionPartition(domains, constraints, options);
    const RegionPartition want = ReferencePartition(domains, constraints, lazy);
    ASSERT_EQ(got.domains.size(), want.domains.size()) << where;
    ASSERT_EQ(got.num_regions(), want.num_regions()) << where;
    for (int r = 0; r < want.num_regions(); ++r) {
      ASSERT_EQ(got.regions[r].label, want.regions[r].label)
          << where << " region " << r;
      ExpectSameBlocks(got.regions[r].blocks, want.regions[r].blocks,
                       where + " region " + std::to_string(r));
    }
    ++cases;
  }
  EXPECT_EQ(cases, 3000);
}

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
