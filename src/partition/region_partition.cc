#include "partition/region_partition.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace hydra {

bool Block::empty() const {
  for (const IntervalSet& s : dims) {
    if (s.empty()) return true;
  }
  return dims.empty();
}

bool Block::ContainsPoint(const Row& point) const {
  HYDRA_DCHECK(point.size() == dims.size());
  for (size_t i = 0; i < dims.size(); ++i) {
    if (!dims[i].Contains(point[i])) return false;
  }
  return true;
}

Row Block::MinPoint() const {
  Row p;
  p.reserve(dims.size());
  for (const IntervalSet& s : dims) p.push_back(s.Min());
  return p;
}

uint64_t Block::PointCountCapped(uint64_t cap) const {
  uint64_t count = 1;
  for (const IntervalSet& s : dims) {
    const uint64_t c = static_cast<uint64_t>(s.Count());
    if (c == 0) return 0;
    if (count > cap / c) return cap;
    count *= c;
  }
  return std::min(count, cap);
}

std::string Block::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += " × ";
    out += dims[i].ToString();
  }
  return out + ")";
}

bool Region::SatisfiesConstraint(int constraint_index) const {
  return std::binary_search(label.begin(), label.end(), constraint_index);
}

Row Region::MinPoint() const {
  HYDRA_CHECK(!blocks.empty());
  Row best = blocks[0].MinPoint();
  for (size_t i = 1; i < blocks.size(); ++i) {
    Row p = blocks[i].MinPoint();
    if (p < best) best = p;
  }
  return best;
}

uint64_t Region::PointCountCapped(uint64_t cap) const {
  uint64_t total = 0;
  for (const Block& b : blocks) {
    const uint64_t c = b.PointCountCapped(cap);
    if (total > cap - c) return cap;
    total += c;
  }
  return total;
}

int RegionPartition::RegionOf(const Row& point) const {
  for (size_t r = 0; r < regions.size(); ++r) {
    for (const Block& b : regions[r].blocks) {
      if (b.ContainsPoint(point)) return static_cast<int>(r);
    }
  }
  return -1;
}

std::vector<Block> BuildValidBlocks(
    const std::vector<Interval>& domains,
    const std::vector<Conjunct>& sub_constraints,
    const RegionPartitionOptions& options) {
  const int n = static_cast<int>(domains.size());
  const size_t m = sub_constraints.size();

  // A block plus, per sub-constraint, whether the block is still contained
  // in the constraint's restriction on every dimension processed so far.
  // Once a block falls outside a constraint along some dimension, every one
  // of its points fails the constraint (Definition 4.6: the constraint no
  // longer *splits* it), so later dimensions of that constraint must not
  // refine it — this is what keeps the valid partition additive in the
  // number of (mostly non-overlapping) predicates instead of degenerating
  // into the cross-product grid.
  struct PendingBlock {
    Block block;
    std::vector<bool> inside;
  };

  Block universe;
  universe.dims.reserve(n);
  for (const Interval& d : domains) universe.dims.push_back(IntervalSet(d));
  std::vector<PendingBlock> blocks;
  if (!universe.empty()) {
    blocks.push_back({std::move(universe), std::vector<bool>(m, true)});
  }

  // Process dimensions 1..n (outer loop of Algorithm 2).
  for (int dim = 0; dim < n; ++dim) {
    for (size_t k = 0; k < m; ++k) {
      const Conjunct& c = sub_constraints[k];
      if (!c.Mentions(dim)) continue;  // restriction is "true": never splits
      const IntervalSet restriction = c.RestrictTo(dim, domains[dim]);
      std::vector<PendingBlock> next;
      next.reserve(blocks.size());
      for (PendingBlock& pb : blocks) {
        if (options.lazy_constraint_tracking && !pb.inside[k]) {
          // Already disjoint from c along an earlier dimension: c evaluates
          // to false on all of pb, so it cannot split it.
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
        HYDRA_DCHECK(!b_minus.block.dims[dim].empty());
        b_minus.inside[k] = false;
        next.push_back(std::move(b_plus));
        next.push_back(std::move(b_minus));
      }
      blocks = std::move(next);
    }
  }
  std::vector<Block> out;
  out.reserve(blocks.size());
  for (PendingBlock& pb : blocks) out.push_back(std::move(pb.block));
  return out;
}

RegionPartition BuildRegionPartition(
    const std::vector<Interval>& domains,
    const std::vector<DnfPredicate>& constraints,
    const RegionPartitionOptions& options) {
  // Step 1 of Algorithm 1: collect the sub-constraints (DNF conjuncts).
  std::vector<Conjunct> sub_constraints;
  for (const DnfPredicate& p : constraints) {
    for (const Conjunct& c : p.conjuncts()) {
      if (!c.atoms.empty()) sub_constraints.push_back(c);
    }
  }

  // Step 2: valid partition with respect to the sub-constraints.
  std::vector<Block> blocks =
      BuildValidBlocks(domains, sub_constraints, options);

  // Steps 3-4: label every block with the set of constraints it satisfies
  // (any point of the block is representative — blocks are valid w.r.t. every
  // sub-constraint, hence w.r.t. every DNF constraint), then merge equal
  // labels into regions.
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

std::vector<int64_t> BlockBoundaries(const RegionPartition& partition,
                                     int dim) {
  std::vector<int64_t> cuts;
  for (const Region& region : partition.regions) {
    for (const Block& b : region.blocks) {
      for (const Interval& iv : b.dims[dim].intervals()) {
        cuts.push_back(iv.lo);
        cuts.push_back(iv.hi);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  // Interior boundaries only.
  const Interval& domain = partition.domains[dim];
  std::vector<int64_t> interior;
  for (int64_t c : cuts) {
    if (c > domain.lo && c < domain.hi) interior.push_back(c);
  }
  return interior;
}

}  // namespace hydra
