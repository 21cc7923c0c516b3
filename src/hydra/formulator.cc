#include "hydra/formulator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>

#include "common/logging.h"

namespace hydra {

namespace {

// A block's extent along some of its dimensions (a separator's, in the
// block's sub-view).
struct Projection {
  const Block* block = nullptr;
  const std::vector<int>* dims = nullptr;

  const IntervalSet& extent(size_t i) const {
    return block->dims[(*dims)[i]];
  }
  friend bool operator==(const Projection& a, const Projection& b) {
    for (size_t i = 0; i < a.dims->size(); ++i) {
      if (!(a.extent(i) == b.extent(i))) return false;
    }
    return true;
  }
  struct Hash {
    size_t operator()(const Projection& p) const {
      uint64_t h = 0;
      for (int d : *p.dims) {
        for (const Interval& iv : p.block->dims[d].intervals()) {
          h = (h ^ static_cast<uint64_t>(iv.lo)) * 0x9e3779b97f4a7c15ull;
          h = (h ^ static_cast<uint64_t>(iv.hi)) * 0x9e3779b97f4a7c15ull;
        }
        h = (h ^ 1) * 0x9e3779b97f4a7c15ull;  // ends a dimension's list
      }
      return static_cast<size_t>(h);
    }
  };
};

// Local dimension, in `sv`, of each of `columns` (view columns `sv` holds).
std::vector<int> LocalDims(const SubView& sv, const std::vector<int>& columns) {
  std::vector<int> dims;
  dims.reserve(columns.size());
  for (int col : columns) {
    const auto pos =
        std::lower_bound(sv.columns.begin(), sv.columns.end(), col);
    HYDRA_CHECK(pos != sv.columns.end() && *pos == col);
    dims.push_back(static_cast<int>(pos - sv.columns.begin()));
  }
  return dims;
}

// A clique-tree edge while its LP rows are formulated. A partition's blocks
// are numbered region by region.
struct Edge {
  int child = -1;  // -1 until built
  // The separator's local dims in the child and in the parent.
  std::vector<int> child_dims;
  std::vector<int> parent_dims;
  // Projection index of every child block and every parent block.
  std::vector<int> child_projection;
  std::vector<int> parent_projection;
  RegionPartition classes;
  // The classes each projection is the union of, and each class's
  // lexicographically smallest point.
  std::vector<std::vector<int>> classes_of;
  std::vector<Row> class_min;
};

// Partitions the separator of `child`'s parent edge into classes: Algorithm
// 1 over the separator's space, whose constraints are the child's and the
// parent's distinct block projections plus one `dim >= cut` constraint per
// entry of `cuts` (indexed by separator dimension).
Edge BuildEdge(const View& view, const std::vector<SubViewLp>& subviews,
               int child, const std::vector<std::vector<int64_t>>& cuts) {
  Edge e;
  const SubView& sv = subviews[child].subview;
  const SubViewLp& parent = subviews[sv.parent];
  e.child = child;
  e.child_dims = LocalDims(sv, sv.separator);
  e.parent_dims = LocalDims(parent.subview, sv.separator);
  std::vector<Interval> domains;
  for (int col : sv.separator) domains.push_back(view.domains[col]);

  // Distinct projections in order of first appearance, each by its first
  // block.
  std::vector<Projection> distinct;
  std::unordered_map<Projection, int, Projection::Hash> index;
  const auto project = [&](const RegionPartition& partition,
                           const std::vector<int>& dims,
                           std::vector<int>* out) {
    for (const Region& region : partition.regions) {
      for (const Block& b : region.blocks) {
        const Projection p{&b, &dims};
        const int next = static_cast<int>(distinct.size());
        const auto [it, inserted] = index.emplace(p, next);
        if (inserted) distinct.push_back(p);
        out->push_back(it->second);
      }
    }
  };
  project(subviews[child].partition, e.child_dims, &e.child_projection);
  project(parent.partition, e.parent_dims, &e.parent_projection);

  const int num_projections = static_cast<int>(distinct.size());
  std::vector<DnfPredicate> constraints(num_projections);
  for (int j = 0; j < num_projections; ++j) {
    Conjunct conjunct;
    for (size_t d = 0; d < domains.size(); ++d) {
      const IntervalSet& extent = distinct[j].extent(d);
      const std::vector<Interval>& ivs = extent.intervals();
      if (ivs.size() == 1 && ivs[0] == domains[d]) continue;  // cannot split
      conjunct.atoms.push_back(Atom{static_cast<int>(d), extent});
    }
    constraints[j].AddConjunct(std::move(conjunct));
  }
  for (size_t d = 0; d < cuts.size(); ++d) {
    for (int64_t cut : cuts[d]) {
      constraints.push_back(
          PredicateOf(AtomGreaterEqual(static_cast<int>(d), cut)));
    }
  }
  e.classes = BuildRegionPartition(domains, constraints);
  e.classes_of.resize(num_projections);
  e.class_min.reserve(e.classes.num_regions());
  for (int k = 0; k < e.classes.num_regions(); ++k) {
    for (int j : e.classes.regions[k].label) {
      if (j < num_projections) e.classes_of[j].push_back(k);
    }
    e.class_min.push_back(e.classes.regions[k].MinPoint());
  }
  return e;
}

// An edge at a sub-view, seen from that sub-view's side.
struct Incident {
  const Edge* edge = nullptr;
  const std::vector<int>* dims = nullptr;        // separator's local dims
  const std::vector<int>* projection = nullptr;  // per block
  uint64_t stride = 0;  // of its class in a packed combination key
};

// Incident edges whose separators share dimensions. A block meets their
// classes jointly, and independently of every other group's.
struct Group {
  std::vector<int> members;  // incident indices
  std::vector<int> dims;     // sorted union of their dims
  // Per member, the position in `dims` of each of its dims.
  std::vector<std::vector<int>> pos;
};

std::vector<Group> GroupIncident(const std::vector<Incident>& incident) {
  std::vector<Group> groups;
  for (int i = 0; i < static_cast<int>(incident.size()); ++i) {
    Group joined;
    joined.members = {i};
    joined.dims = *incident[i].dims;
    for (size_t g = groups.size(); g-- > 0;) {
      std::vector<int> shared;
      std::set_intersection(groups[g].dims.begin(), groups[g].dims.end(),
                            joined.dims.begin(), joined.dims.end(),
                            std::back_inserter(shared));
      if (shared.empty()) continue;
      joined.members.insert(joined.members.end(), groups[g].members.begin(),
                            groups[g].members.end());
      std::vector<int> dims;
      std::set_union(groups[g].dims.begin(), groups[g].dims.end(),
                     joined.dims.begin(), joined.dims.end(),
                     std::back_inserter(dims));
      joined.dims = std::move(dims);
      groups.erase(groups.begin() + g);
    }
    std::sort(joined.members.begin(), joined.members.end());
    groups.push_back(std::move(joined));
  }
  for (Group& group : groups) {
    for (int m : group.members) {
      std::vector<int> pos;
      for (int d : *incident[m].dims) {
        pos.push_back(static_cast<int>(
            std::lower_bound(group.dims.begin(), group.dims.end(), d) -
            group.dims.begin()));
      }
      group.pos.push_back(std::move(pos));
    }
  }
  return groups;
}

// Intervals [begin, begin + size) of an interval arena.
struct Span {
  size_t begin = 0;
  size_t size = 0;
};

// Whether the value sets a[0, na) and b share a value.
bool Overlaps(const Interval* a, size_t na, const std::vector<Interval>& b) {
  size_t i = 0, j = 0;
  while (i < na && j < b.size()) {
    if (a[i].Overlaps(b[j])) return true;
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// Boxes over a group's dims, kept flat: a packed key each, and per group
// dim an extent (a span of an interval arena).
struct Boxes {
  std::vector<uint64_t> key;
  std::vector<Span> extent;  // group width per box
};

// The pieces of one block cut by one group's classes: a packed key part
// each, and the piece's smallest point over the group's dims (flattened).
struct Pieces {
  std::vector<uint64_t> key;
  std::vector<int64_t> min;
  // Scratch of the overlapping-separator path.
  Boxes boxes;
  Boxes next;
  std::vector<Interval> intervals;
  std::vector<int> order;
};

void GroupPieces(const Group& group, const std::vector<Incident>& incident,
                 const Block& block, int b, Pieces* out) {
  out->key.clear();
  out->min.clear();
  if (group.members.size() == 1) {
    // A block projection is a union of classes: each class is one piece.
    const Incident& in = incident[group.members[0]];
    for (int k : in.edge->classes_of[(*in.projection)[b]]) {
      out->key.push_back(in.stride * static_cast<uint64_t>(k));
      const Row& m = in.edge->class_min[k];
      out->min.insert(out->min.end(), m.begin(), m.end());
    }
    return;
  }
  // Separators sharing dims: intersect the members' class blocks inside
  // the block's extent over the group's dims.
  const size_t width = group.dims.size();
  std::vector<Interval>& ivs = out->intervals;
  Boxes& boxes = out->boxes;
  Boxes& next = out->next;
  ivs.clear();
  boxes.key.assign(1, 0);
  boxes.extent.clear();
  for (int d : group.dims) {
    const std::vector<Interval>& extent = block.dims[d].intervals();
    boxes.extent.push_back(Span{ivs.size(), extent.size()});
    ivs.insert(ivs.end(), extent.begin(), extent.end());
  }
  for (size_t mi = 0; mi < group.members.size(); ++mi) {
    const Incident& in = incident[group.members[mi]];
    const std::vector<int>& pos = group.pos[mi];
    next.key.clear();
    next.extent.clear();
    for (size_t i = 0; i < boxes.key.size(); ++i) {
      for (int k : in.edge->classes_of[(*in.projection)[b]]) {
        for (const Block& cb : in.edge->classes.regions[k].blocks) {
          const Span* box = &boxes.extent[i * width];
          bool meets = true;
          for (size_t j = 0; j < pos.size() && meets; ++j) {
            const Span e = box[pos[j]];
            meets =
                Overlaps(ivs.data() + e.begin, e.size, cb.dims[j].intervals());
          }
          if (!meets) continue;
          next.key.push_back(boxes.key[i] +
                             in.stride * static_cast<uint64_t>(k));
          const size_t first = next.extent.size();
          next.extent.insert(next.extent.end(), box, box + width);
          for (size_t j = 0; j < pos.size(); ++j) {
            Span& e = next.extent[first + pos[j]];
            const std::vector<Interval>& c = cb.dims[j].intervals();
            const Span from = e;
            e.begin = ivs.size();
            for (size_t x = 0, y = 0; x < from.size && y < c.size();) {
              const Interval iv = ivs[from.begin + x];
              const Interval isect = iv.Intersect(c[y]);
              if (!isect.empty()) ivs.push_back(isect);
              if (iv.hi < c[y].hi) {
                ++x;
              } else {
                ++y;
              }
            }
            e.size = ivs.size() - e.begin;
          }
        }
      }
    }
    std::swap(boxes, next);
  }
  std::vector<int>& order = out->order;
  order.resize(boxes.key.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&boxes](int x, int y) {
    return boxes.key[x] < boxes.key[y];
  });
  std::vector<int64_t> min(width);
  for (size_t i = 0; i < order.size(); ++i) {
    const Span* box = &boxes.extent[order[i] * width];
    for (size_t d = 0; d < width; ++d) min[d] = ivs[box[d].begin].lo;
    const uint64_t key = boxes.key[order[i]];
    if (i == 0 || key != boxes.key[order[i - 1]]) {
      out->key.push_back(key);
      out->min.insert(out->min.end(), min.begin(), min.end());
      continue;
    }
    const auto best = out->min.end() - width;
    if (std::lexicographical_compare(min.begin(), min.end(), best,
                                     out->min.end())) {
      std::copy(min.begin(), min.end(), best);
    }
  }
}

// Splits every region of `sv` into one variable per combination of
// incident-edge classes it meets, and appends each variable's packed
// combination to `keys`. A split sub-view's variables follow (label, key),
// the ordering the solver's pricing was tuned against; an unsplit one keeps
// region order.
void SplitRegions(const std::vector<Incident>& incident, SubViewLp* sv,
                  std::vector<uint64_t>* keys) {
  const RegionPartition& partition = sv->partition;
  std::vector<int> first_block(partition.num_regions() + 1, 0);
  for (int r = 0; r < partition.num_regions(); ++r) {
    first_block[r + 1] =
        first_block[r] + static_cast<int>(partition.regions[r].blocks.size());
  }
  std::vector<int> order(partition.num_regions());
  std::iota(order.begin(), order.end(), 0);
  if (!incident.empty()) {
    std::sort(order.begin(), order.end(), [&partition](int a, int b) {
      return partition.regions[a].label < partition.regions[b].label;
    });
  }
  const std::vector<Group> groups = GroupIncident(incident);
  std::vector<Pieces> pieces(groups.size());
  std::vector<size_t> pick(groups.size());
  const size_t width = partition.domains.size();
  Row base(width), point(width);
  // The pieces found in the current region: key and smallest point (width
  // values each).
  std::vector<uint64_t> found_key;
  std::vector<Value> found_min;
  std::vector<int> by_key;
  for (int r : order) {
    found_key.clear();
    found_min.clear();
    int b = first_block[r];
    for (const Block& block : partition.regions[r].blocks) {
      bool met = true;
      for (size_t g = 0; g < groups.size(); ++g) {
        GroupPieces(groups[g], incident, block, b, &pieces[g]);
        met = met && !pieces[g].key.empty();
      }
      ++b;
      if (!met) continue;
      for (size_t d = 0; d < width; ++d) base[d] = block.dims[d].Min();
      // Every combination of one piece per group is a non-empty piece of
      // the block: the groups' dims are disjoint.
      std::fill(pick.begin(), pick.end(), 0);
      while (true) {
        uint64_t key = 0;
        point = base;
        for (size_t g = 0; g < groups.size(); ++g) {
          key += pieces[g].key[pick[g]];
          const size_t n = groups[g].dims.size();
          for (size_t d = 0; d < n; ++d) {
            point[groups[g].dims[d]] = pieces[g].min[pick[g] * n + d];
          }
        }
        found_key.push_back(key);
        found_min.insert(found_min.end(), point.begin(), point.end());
        size_t g = 0;
        while (g < groups.size() && ++pick[g] == pieces[g].key.size()) {
          pick[g++] = 0;
        }
        if (g == groups.size()) break;
      }
    }
    // One variable per key, at the smallest point of its pieces.
    const auto min = [&found_min, width](int i) {
      return found_min.begin() + i * width;
    };
    by_key.resize(found_key.size());
    std::iota(by_key.begin(), by_key.end(), 0);
    std::sort(by_key.begin(), by_key.end(), [&](int x, int y) {
      if (found_key[x] != found_key[y]) return found_key[x] < found_key[y];
      return std::lexicographical_compare(min(x), min(x) + width, min(y),
                                          min(y) + width);
    });
    for (size_t i = 0; i < by_key.size(); ++i) {
      const int piece = by_key[i];
      if (i > 0 && found_key[piece] == found_key[by_key[i - 1]]) continue;
      sv->variables.push_back(
          RegionPiece{r, Row(min(piece), min(piece) + width)});
      keys->push_back(found_key[piece]);
    }
  }
}

// "label = cardinality", for error messages.
std::string SizeText(const ViewConstraint& vc) {
  return vc.label + " = " + std::to_string(vc.cardinality);
}

}  // namespace

StatusOr<ViewLp> FormulateViewLp(const View& view,
                                 std::vector<ViewConstraint> constraints) {
  ViewLp out;
  out.total_rows = view.total_rows;

  // Extract total-size constraints (TRUE predicates). Duplicates must agree.
  std::vector<ViewConstraint> filtered;
  const ViewConstraint* total = nullptr;
  for (ViewConstraint& vc : constraints) {
    if (vc.predicate.IsTrue()) {
      if (total != nullptr && total->cardinality != vc.cardinality) {
        const std::string both = SizeText(*total) + ", " + SizeText(vc);
        return Status::FailedPrecondition("total-size CCs disagree: " + both);
      }
      total = &vc;
      out.total_rows = vc.cardinality;
    } else if (vc.predicate.IsFalse()) {
      return Status::InvalidArgument("FALSE predicate in CC " + vc.label);
    } else {
      filtered.push_back(std::move(vc));
    }
  }
  out.constraints = std::move(filtered);

  std::vector<SubView> subviews =
      DecomposeView(view.num_columns(), out.constraints);

  // Assign each constraint to the first sub-view covering its columns.
  std::vector<std::vector<int>> assigned(subviews.size());
  for (size_t ci = 0; ci < out.constraints.size(); ++ci) {
    const std::vector<int> cols = out.constraints[ci].predicate.Columns();
    bool placed = false;
    for (size_t s = 0; s < subviews.size(); ++s) {
      if (std::includes(subviews[s].columns.begin(),
                        subviews[s].columns.end(), cols.begin(),
                        cols.end())) {
        assigned[s].push_back(static_cast<int>(ci));
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Cannot happen: a CC's columns form a clique of the view-graph and
      // every clique is inside some maximal clique.
      return Status::Internal("constraint " + out.constraints[ci].label +
                              " not covered by any sub-view");
    }
  }

  // Build region partitions per sub-view.
  for (size_t s = 0; s < subviews.size(); ++s) {
    SubViewLp svlp;
    svlp.subview = subviews[s];
    svlp.assigned_constraints = assigned[s];

    const int local_dims = static_cast<int>(subviews[s].columns.size());
    std::vector<Interval> domains(local_dims);
    std::vector<int> view_to_local(view.num_columns(), -1);
    for (int d = 0; d < local_dims; ++d) {
      domains[d] = view.domains[subviews[s].columns[d]];
      view_to_local[subviews[s].columns[d]] = d;
    }
    std::vector<DnfPredicate> predicates;
    predicates.reserve(assigned[s].size());
    for (int ci : assigned[s]) {
      predicates.push_back(
          out.constraints[ci].predicate.RemapColumns(view_to_local));
    }
    svlp.partition = BuildRegionPartition(domains, predicates);
    out.subviews.push_back(std::move(svlp));
  }

  const int num_subviews = static_cast<int>(out.subviews.size());
  std::vector<std::vector<int>> children(num_subviews);
  for (int s = 0; s < num_subviews; ++s) {
    const SubView& sv = out.subviews[s].subview;
    if (sv.parent >= 0 && !sv.separator.empty()) {
      children[sv.parent].push_back(s);
    }
  }

  // Continuation columns, per sub-view: those of its parent separator that
  // lie in one of its child separators. The edge to its parent splits its
  // classes at their global cuts (every sub-view's block boundaries along
  // the column).
  std::vector<std::vector<int>> continuation(num_subviews);
  std::map<int, std::vector<int64_t>> cuts_of;
  for (int s = 0; s < num_subviews; ++s) {
    const std::vector<int>& up = out.subviews[s].subview.separator;
    for (int c : children[s]) {
      for (int col : out.subviews[c].subview.separator) {
        if (std::binary_search(up.begin(), up.end(), col)) {
          continuation[s].push_back(col);
          cuts_of.try_emplace(col);
        }
      }
    }
  }
  for (const SubViewLp& sv : out.subviews) {
    for (size_t d = 0; d < sv.subview.columns.size(); ++d) {
      const auto it = cuts_of.find(sv.subview.columns[d]);
      if (it == cuts_of.end()) continue;
      const std::vector<int64_t> cuts =
          BlockBoundaries(sv.partition, static_cast<int>(d));
      it->second.insert(it->second.end(), cuts.begin(), cuts.end());
    }
  }
  for (auto& [col, cuts] : cuts_of) {
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }

  // Classes per clique-tree edge, indexed by the child sub-view.
  std::vector<Edge> edges(num_subviews);
  for (int s = 0; s < num_subviews; ++s) {
    for (int c : children[s]) {
      const std::vector<int>& cont = continuation[c];
      std::vector<std::vector<int64_t>> cuts;
      for (int col : out.subviews[c].subview.separator) {
        const bool cut = std::find(cont.begin(), cont.end(), col) != cont.end();
        cuts.push_back(cut ? cuts_of[col] : std::vector<int64_t>{});
      }
      edges[c] = BuildEdge(view, out.subviews, c, cuts);
    }
  }

  // Split regions into variables: one per combination of classes of the
  // sub-view's edges (parent edge first, then children) that it meets.
  for (int s = 0; s < num_subviews; ++s) {
    SubViewLp& sv = out.subviews[s];
    std::vector<Incident> incident;
    if (edges[s].child == s) {
      incident.push_back(Incident{&edges[s], &edges[s].child_dims,
                                  &edges[s].child_projection});
    }
    for (int c : children[s]) {
      incident.push_back(Incident{&edges[c], &edges[c].parent_dims,
                                  &edges[c].parent_projection});
    }
    uint64_t stride = 1;
    for (size_t i = incident.size(); i-- > 0;) {
      incident[i].stride = stride;
      const uint64_t classes = static_cast<uint64_t>(
          std::max(1, incident[i].edge->classes.num_regions()));
      if (stride > (uint64_t{1} << 62) / classes) {
        return Status::ResourceExhausted(
            "sub-view's class combinations exceed 2^62");
      }
      stride *= classes;
    }
    std::vector<uint64_t> keys;
    SplitRegions(incident, &sv, &keys);
    for (size_t i = 0; i < incident.size(); ++i) {
      const Edge& e = *incident[i].edge;
      SeparatorClasses& classes_out = out.subviews[e.child].parent_edge;
      std::vector<int>& dst =
          e.child == s ? classes_out.child_class : classes_out.parent_class;
      const uint64_t classes =
          static_cast<uint64_t>(std::max(1, e.classes.num_regions()));
      dst.reserve(keys.size());
      for (uint64_t key : keys) {
        dst.push_back(static_cast<int>(key / incident[i].stride % classes));
      }
    }
  }
  for (int s = 0; s < num_subviews; ++s) {
    if (edges[s].child == s) {
      out.subviews[s].parent_edge.classes = std::move(edges[s].classes);
    }
  }

  // Allocate LP variables.
  for (SubViewLp& sv : out.subviews) {
    sv.first_var = out.problem.AddVariables(sv.num_vars());
  }

  // (a) Total-size constraint per sub-view.
  for (const SubViewLp& sv : out.subviews) {
    LpConstraint c;
    c.label = "total";
    c.rhs = static_cast<double>(out.total_rows);
    for (int v = 0; v < sv.num_vars(); ++v) c.AddTerm(sv.first_var + v, 1.0);
    out.problem.AddConstraint(std::move(c));
  }

  // (b) One LP row per assigned CC, filled in one pass over the variables.
  for (const SubViewLp& sv : out.subviews) {
    std::vector<LpConstraint> rows(sv.assigned_constraints.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      const ViewConstraint& vc = out.constraints[sv.assigned_constraints[k]];
      rows[k].label = vc.label;
      rows[k].rhs = static_cast<double>(vc.cardinality);
    }
    for (int v = 0; v < sv.num_vars(); ++v) {
      // Region labels index the sub-view's local predicate list, which is
      // ordered like assigned_constraints.
      for (int k : sv.partition.regions[sv.variables[v].region].label) {
        rows[k].AddTerm(sv.first_var + v, 1.0);
      }
    }
    for (LpConstraint& c : rows) out.problem.AddConstraint(std::move(c));
  }

  // (c) Consistency constraints per clique-tree edge: equal child and
  // parent mass per class.
  for (int s = 0; s < num_subviews; ++s) {
    const SubViewLp& child = out.subviews[s];
    const SeparatorClasses& edge = child.parent_edge;
    if (edge.classes.num_regions() == 0) continue;
    const SubViewLp& parent = out.subviews[child.subview.parent];
    std::vector<LpConstraint> rows(edge.classes.num_regions());
    const std::string label = "consistency sv" + std::to_string(s);
    for (LpConstraint& c : rows) c.label = label;
    for (int v = 0; v < parent.num_vars(); ++v) {
      rows[edge.parent_class[v]].AddTerm(parent.first_var + v, -1.0);
    }
    for (int v = 0; v < child.num_vars(); ++v) {
      rows[edge.child_class[v]].AddTerm(child.first_var + v, 1.0);
    }
    for (LpConstraint& c : rows) out.problem.AddConstraint(std::move(c));
  }

  return out;
}

}  // namespace hydra
