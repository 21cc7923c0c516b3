#include "partition/region_partition.h"

#include <algorithm>
#include <unordered_map>

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

namespace {

// Bit sets as 64-bit words.
constexpr size_t kWordBits = 64;

size_t NumWords(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

bool TestBit(const uint64_t* words, size_t i) {
  return (words[i / kWordBits] >> (i % kWordBits)) & 1;
}

void SetBit(uint64_t* words, size_t i) {
  words[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
}

void ClearBit(uint64_t* words, size_t i) {
  words[i / kWordBits] &= ~(uint64_t{1} << (i % kWordBits));
}

// Calls f(i) for every set bit i of words[0, n), in ascending order.
template <typename F>
void ForEachBit(const uint64_t* words, size_t n, F f) {
  for (size_t w = 0; w < n; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(w * kWordBits + static_cast<size_t>(__builtin_ctzll(bits)));
    }
  }
}

// Hashes a bit set by its words.
struct WordsHash {
  size_t operator()(const std::vector<uint64_t>& words) const {
    uint64_t h = 0;
    for (uint64_t w : words) h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h);
  }
};

// Intervals [begin, begin + size) of an interval arena.
struct Span {
  size_t begin = 0;
  size_t size = 0;
};

// Appends a ∩ b to `arena`, a being a span of it and b[0, b_size) an
// interval list outside it, with IntervalSet::Intersect's result: sorted,
// disjoint and non-adjacent, like both inputs. The arena's capacity is
// reused, so no call allocates once it has grown.
void AppendIntersection(std::vector<Interval>* arena, Span a,
                        const Interval* b, size_t b_size) {
  size_t i = 0, j = 0;
  while (i < a.size && j < b_size) {
    const Interval x = (*arena)[a.begin + i];
    const Interval isect = x.Intersect(b[j]);
    if (!isect.empty()) arena->push_back(isect);
    if (x.hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
}

// Appends a \ b to `arena`, as IntervalSet::Difference does.
void AppendDifference(std::vector<Interval>* arena, Span a,
                      const Interval* b, size_t b_size) {
  size_t j = 0;
  for (size_t i = 0; i < a.size; ++i) {
    Interval cur = (*arena)[a.begin + i];
    while (j < b_size && b[j].hi <= cur.lo) ++j;
    for (size_t k = j; !cur.empty() && k < b_size && b[k].lo < cur.hi; ++k) {
      if (b[k].lo > cur.lo) arena->push_back(Interval(cur.lo, b[k].lo));
      cur.lo = std::max(cur.lo, b[k].hi);
      if (b[k].hi >= cur.hi) break;
    }
    if (!cur.empty()) arena->push_back(cur);
  }
}

bool SameIntervals(const std::vector<Interval>& arena, Span a, Span b) {
  return a.size == b.size &&
         std::equal(arena.begin() + a.begin, arena.begin() + a.begin + a.size,
                    arena.begin() + b.begin);
}

// Algorithm 2's blocks before they become Blocks: per block, one extent per
// dimension (a span of `intervals`) and one inside flag per sub-constraint.
struct RefinedBlocks {
  size_t dims = 0;
  size_t count = 0;
  std::vector<Interval> intervals;
  std::vector<Span> extent;      // count x dims
  size_t words = 0;              // flag words per block
  std::vector<uint64_t> inside;  // count x words

  Block ToBlock(size_t i) const {
    Block b;
    b.dims.reserve(dims);
    for (size_t d = 0; d < dims; ++d) {
      const Span s = extent[i * dims + d];
      const auto first = intervals.begin() + s.begin;
      if (s.size == 1) {  // skips the list constructor's normalizing copy
        b.dims.emplace_back(*first);
      } else {
        b.dims.emplace_back(std::vector<Interval>(first, first + s.size));
      }
    }
    return b;
  }
};

// Algorithm 2, depth first. A block plus, per sub-constraint, whether the
// block is still contained in the constraint's restriction on every
// dimension processed so far. Once a block falls outside a constraint along
// some dimension, every one of its points fails the constraint (Definition
// 4.6: the constraint no longer *splits* it), so later dimensions of that
// constraint must not refine it — this is what keeps the valid partition
// additive in the number of (mostly non-overlapping) predicates instead of
// degenerating into the cross-product grid.
//
// Each dimension pushes every block through the constraints that mention
// it, in constraint order, refining the inside part of a split before the
// outside part. Its blocks come out in the order a constraint-by-constraint
// sweep over the whole block list would leave them.
RefinedBlocks Refine(const std::vector<Interval>& domains,
                     const std::vector<const Conjunct*>& sub_constraints,
                     const RegionPartitionOptions& options) {
  RefinedBlocks out;
  const size_t n = domains.size();
  const size_t m = sub_constraints.size();
  const size_t words = NumWords(m);
  out.dims = n;
  out.words = words;
  bool empty = domains.empty();
  for (const Interval& d : domains) empty = empty || d.empty();
  if (empty) return out;
  // The universe: every dimension's whole domain.
  out.count = 1;
  out.intervals = domains;
  for (size_t d = 0; d < n; ++d) out.extent.push_back(Span{d, 1});
  out.inside.assign(words, 0);
  for (size_t k = 0; k < m; ++k) SetBit(out.inside.data(), k);

  // The constraints mentioning the current dimension, and their
  // restrictions to it.
  std::vector<size_t> mentions;
  std::vector<Span> restriction;  // into restriction_ivs
  std::vector<Interval> restriction_ivs;
  // One block's depth-first refinement: extents and flags of the pending
  // outside parts.
  struct Pending {
    Span extent;
    size_t flags = 0;  // into `flags`
    size_t next = 0;   // into `mentions`
  };
  std::vector<Pending> stack;
  std::vector<Interval> arena;
  std::vector<uint64_t> flags;
  std::vector<Span> next_extent;
  std::vector<uint64_t> next_inside;

  for (int dim = 0; dim < static_cast<int>(n); ++dim) {
    mentions.clear();
    restriction.clear();
    restriction_ivs.clear();
    for (size_t k = 0; k < m; ++k) {
      if (!sub_constraints[k]->Mentions(dim)) continue;  // never splits
      const IntervalSet r = sub_constraints[k]->RestrictTo(dim, domains[dim]);
      mentions.push_back(k);
      restriction.push_back(
          Span{restriction_ivs.size(), r.intervals().size()});
      restriction_ivs.insert(restriction_ivs.end(), r.intervals().begin(),
                             r.intervals().end());
    }
    if (mentions.empty()) continue;

    next_extent.clear();
    next_inside.clear();
    for (size_t b = 0; b < out.count; ++b) {
      // Every block still spans the whole domain along `dim`.
      arena.assign(1, domains[dim]);
      flags.assign(out.inside.begin() + b * words,
                   out.inside.begin() + (b + 1) * words);
      stack.assign(1, Pending{Span{0, 1}, 0, 0});
      while (!stack.empty()) {
        Pending cur = stack.back();
        stack.pop_back();
        for (; cur.next < mentions.size(); ++cur.next) {
          const size_t k = mentions[cur.next];
          if (options.lazy_constraint_tracking &&
              !TestBit(&flags[cur.flags], k)) {
            // Already disjoint from the constraint along an earlier
            // dimension: it is false on all of the block.
            continue;
          }
          const Span r = restriction[cur.next];
          const Interval* r_begin = restriction_ivs.data() + r.begin;
          const size_t in_begin = arena.size();
          AppendIntersection(&arena, cur.extent, r_begin, r.size);
          const Span inside{in_begin, arena.size() - in_begin};
          if (inside.size == 0) {
            ClearBit(&flags[cur.flags], k);
            continue;
          }
          if (SameIntervals(arena, inside, cur.extent)) {
            arena.resize(inside.begin);
            continue;
          }
          const size_t out_begin = arena.size();
          AppendDifference(&arena, cur.extent, r_begin, r.size);
          HYDRA_DCHECK(arena.size() > out_begin);
          const size_t out_flags = flags.size();
          flags.resize(out_flags + words);
          std::copy_n(flags.begin() + cur.flags, words,
                      flags.begin() + out_flags);
          ClearBit(&flags[out_flags], k);
          stack.push_back(Pending{Span{out_begin, arena.size() - out_begin},
                                  out_flags, cur.next + 1});
          cur.extent = inside;
        }
        const size_t first = next_extent.size();
        next_extent.insert(next_extent.end(), out.extent.begin() + b * n,
                           out.extent.begin() + (b + 1) * n);
        next_extent[first + dim] = Span{out.intervals.size(), cur.extent.size};
        const auto extent = arena.begin() + cur.extent.begin;
        out.intervals.insert(out.intervals.end(), extent,
                             extent + cur.extent.size);
        next_inside.insert(next_inside.end(), flags.begin() + cur.flags,
                           flags.begin() + cur.flags + words);
      }
    }
    out.count = next_extent.size() / n;
    out.extent.swap(next_extent);
    out.inside.swap(next_inside);
  }
  return out;
}

}  // namespace

std::vector<Block> BuildValidBlocks(
    const std::vector<Interval>& domains,
    const std::vector<Conjunct>& sub_constraints,
    const RegionPartitionOptions& options) {
  std::vector<const Conjunct*> subs;
  subs.reserve(sub_constraints.size());
  for (const Conjunct& c : sub_constraints) subs.push_back(&c);
  const RefinedBlocks refined = Refine(domains, subs, options);
  std::vector<Block> out;
  out.reserve(refined.count);
  for (size_t i = 0; i < refined.count; ++i) out.push_back(refined.ToBlock(i));
  return out;
}

RegionPartition BuildRegionPartition(
    const std::vector<Interval>& domains,
    const std::vector<DnfPredicate>& constraints,
    const RegionPartitionOptions& options) {
  // Step 1 of Algorithm 1: collect the sub-constraints (DNF conjuncts), and
  // the constraints an empty (TRUE) conjunct makes hold everywhere.
  const size_t num_constraints = constraints.size();
  const size_t label_words = NumWords(num_constraints);
  std::vector<const Conjunct*> sub_constraints;
  std::vector<int> constraint_of;
  std::vector<uint64_t> always(label_words, 0);
  for (size_t ci = 0; ci < num_constraints; ++ci) {
    for (const Conjunct& c : constraints[ci].conjuncts()) {
      if (c.atoms.empty()) {
        SetBit(always.data(), ci);
      } else {
        sub_constraints.push_back(&c);
        constraint_of.push_back(static_cast<int>(ci));
      }
    }
  }

  // Step 2: valid partition with respect to the sub-constraints.
  const RefinedBlocks refined = Refine(domains, sub_constraints, options);

  // Steps 3-4: label every block with the set of constraints it satisfies,
  // then merge equal labels into regions, in order of first appearance.
  // Blocks are valid w.r.t. every sub-constraint, so a block's inside flag
  // for a sub-constraint says whether all or none of its points satisfy it;
  // a constraint holds on the block iff one of its conjuncts does.
  RegionPartition partition;
  partition.domains = domains;
  std::unordered_map<std::vector<uint64_t>, int, WordsHash> region_of_label;
  std::vector<uint64_t> label(label_words);
  for (size_t b = 0; b < refined.count; ++b) {
    label = always;
    ForEachBit(refined.inside.data() + b * refined.words, refined.words,
               [&](size_t k) { SetBit(label.data(), constraint_of[k]); });
    auto it = region_of_label.find(label);
    if (it == region_of_label.end()) {
      it = region_of_label.emplace(label, partition.num_regions()).first;
      Region region;
      ForEachBit(label.data(), label_words, [&region](size_t ci) {
        region.label.push_back(static_cast<int>(ci));
      });
      partition.regions.push_back(std::move(region));
    }
    partition.regions[it->second].blocks.push_back(refined.ToBlock(b));
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
