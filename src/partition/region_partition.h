// Region partitioning — the paper's core contribution (Section 4,
// Algorithms 1 and 2).
//
// Given the domain of a sub-view (a product of per-attribute integer
// intervals) and a set of DNF cardinality-constraint predicates over it, the
// optimal partition groups together exactly the points that satisfy the same
// subset of constraints (the quotient set of the equivalence relation R_C,
// Lemma 4.3). Each equivalence class becomes one *region* = one LP variable.
//
// Representation: Algorithm 2 refines one dimension at a time, so every
// intermediate *block* remains a product of per-dimension IntervalSets; a
// region is a set of blocks sharing a constraint signature ("label").

#ifndef HYDRA_PARTITION_REGION_PARTITION_H_
#define HYDRA_PARTITION_REGION_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "query/predicate.h"

namespace hydra {

// A product of per-dimension value sets: dims[i] is the block's extent along
// dimension i. A block is empty iff any dimension's set is empty.
struct Block {
  std::vector<IntervalSet> dims;

  bool empty() const;
  bool ContainsPoint(const Row& point) const;
  // The lexicographically smallest point of the block.
  Row MinPoint() const;
  // Number of integer points, saturated at `cap`.
  uint64_t PointCountCapped(uint64_t cap) const;
  std::string ToString() const;
};

// One LP variable: a maximal set of points with identical constraint
// signature, stored as a union of disjoint blocks.
struct Region {
  std::vector<Block> blocks;
  // Sorted indices of the constraints every point of the region satisfies.
  std::vector<int> label;

  bool SatisfiesConstraint(int constraint_index) const;
  // The lexicographically smallest point across blocks.
  Row MinPoint() const;
  uint64_t PointCountCapped(uint64_t cap) const;
};

struct RegionPartition {
  std::vector<Interval> domains;
  std::vector<Region> regions;

  int num_regions() const { return static_cast<int>(regions.size()); }

  // Index of the region containing `point` (regions partition the domain).
  int RegionOf(const Row& point) const;
};

struct RegionPartitionOptions {
  // When true (default), a block that has fallen outside a sub-constraint
  // along an earlier dimension is never refined by that sub-constraint's
  // later-dimension restrictions (Definition 4.6: the constraint no longer
  // splits it). When false, every per-dimension restriction refines every
  // block — the naive reading of Algorithm 2, whose valid partition
  // degenerates towards the cross-product grid. Exposed for the ablation
  // benchmark; production code always uses the default.
  bool lazy_constraint_tracking = true;
};

// Algorithm 1 (Optimal Partition): returns the minimum-cardinality valid
// partition of the product domain with respect to `constraints`. Constraint
// atoms index dimensions 0..domains.size()-1; atom IntervalSets may extend
// beyond the domain (they are clipped).
RegionPartition BuildRegionPartition(
    const std::vector<Interval>& domains,
    const std::vector<DnfPredicate>& constraints,
    const RegionPartitionOptions& options = {});

// Algorithm 2 (Valid Partition) exposed for testing: refines the domain into
// blocks valid with respect to every conjunct in `sub_constraints`.
std::vector<Block> BuildValidBlocks(
    const std::vector<Interval>& domains,
    const std::vector<Conjunct>& sub_constraints,
    const RegionPartitionOptions& options = {});

// All block boundaries of `partition` along dimension `dim` (sorted, unique,
// interior points only — domain endpoints excluded).
std::vector<int64_t> BlockBoundaries(const RegionPartition& partition,
                                     int dim);

}  // namespace hydra

#endif  // HYDRA_PARTITION_REGION_PARTITION_H_
