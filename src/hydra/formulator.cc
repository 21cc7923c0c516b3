#include "hydra/formulator.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

#include "common/logging.h"

namespace hydra {

namespace {

// Per-dimension strides packing an elementary-cell key into one uint64
// (cell index along dim d is < cuts_d + 1). Returns false when the cell
// space is too large to pack; callers surface that as a Status error —
// a formulation with more than 2^62 elementary cells is far beyond
// anything the LP layer could solve anyway.
bool CellKeyStrides(
    const std::vector<std::pair<int, std::vector<int64_t>>>& cut_dims,
    std::vector<uint64_t>* strides) {
  // The first listed dimension gets the largest stride so that comparing
  // packed keys orders cells exactly like comparing the per-dimension
  // index vectors lexicographically.
  strides->assign(cut_dims.size(), 0);
  uint64_t stride = 1;
  for (size_t d = cut_dims.size(); d-- > 0;) {
    (*strides)[d] = stride;
    const uint64_t cells =
        static_cast<uint64_t>(cut_dims[d].second.size()) + 1;
    if (stride > (uint64_t{1} << 62) / cells) return false;
    stride *= cells;
  }
  return true;
}

// Packed elementary-cell key of a block along the given local dims.
uint64_t BlockFlatKey(
    const Block& b,
    const std::vector<std::pair<int, std::vector<int64_t>>>& cut_dims,
    const std::vector<uint64_t>& strides) {
  uint64_t key = 0;
  for (size_t d = 0; d < cut_dims.size(); ++d) {
    const auto& cuts = cut_dims[d].second;
    const int64_t min_val = b.dims[cut_dims[d].first].Min();
    const auto it = std::upper_bound(cuts.begin(), cuts.end(), min_val);
    key += strides[d] * static_cast<uint64_t>(it - cuts.begin());
  }
  return key;
}

// Splits every region of `partition` into one region per elementary-cell key
// along `cut_dims` (local dim -> sorted cuts). Precondition: the partition
// has already been refined so no block crosses a cut. Fails (without
// touching the partition) when the cell space cannot be keyed.
Status SplitRegionsByCellKeys(
    RegionPartition* partition,
    const std::vector<std::pair<int, std::vector<int64_t>>>& cut_dims) {
  if (cut_dims.empty()) return Status::OK();
  // Split every region into one region per elementary-cell key: the split
  // is required for consistency, while blocks of the same region landing
  // in the same cell stay merged as one variable. Labels are unique per
  // region (BuildRegionPartition merges by label), so grouping is local to
  // each region — sort its blocks by cell key instead of feeding a global
  // map of heap-allocated (label, key) pairs.
  std::vector<uint64_t> strides;
  if (!CellKeyStrides(cut_dims, &strides)) {
    return Status::ResourceExhausted(
        "view's elementary-cell space exceeds 2^62 cells");
  }
  std::vector<Region> out;
  std::vector<uint64_t> out_key;
  out.reserve(partition->regions.size());
  out_key.reserve(partition->regions.size());
  std::vector<std::pair<uint64_t, int>> keyed;
  for (Region& region : partition->regions) {
    keyed.clear();
    keyed.reserve(region.blocks.size());
    for (size_t i = 0; i < region.blocks.size(); ++i) {
      keyed.emplace_back(BlockFlatKey(region.blocks[i], cut_dims, strides),
                         static_cast<int>(i));
    }
    std::sort(keyed.begin(), keyed.end());
    size_t begin = 0;
    for (size_t i = 1; i <= keyed.size(); ++i) {
      if (i < keyed.size() && keyed[i].first == keyed[begin].first) continue;
      Region r;
      r.label = region.label;
      r.blocks.reserve(i - begin);
      for (size_t k = begin; k < i; ++k) {
        r.blocks.push_back(std::move(region.blocks[keyed[k].second]));
      }
      out.push_back(std::move(r));
      out_key.push_back(keyed[begin].first);
      begin = i;
    }
  }
  // Order regions (LP variables) by (label, cell key) — the ordering the
  // pricing heuristics were tuned against.
  std::vector<int> order(out.size());
  for (size_t i = 0; i < out.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (out[a].label != out[b].label) return out[a].label < out[b].label;
    return out_key[a] < out_key[b];
  });
  std::vector<Region> sorted;
  sorted.reserve(out.size());
  for (int i : order) sorted.push_back(std::move(out[i]));
  partition->regions = std::move(sorted);
  return Status::OK();
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

  // Global cut points per *separator* column. Columns shared by sub-views
  // that are not clique-tree neighbours are covered transitively: by the
  // running-intersection property such a column lies in every separator on
  // the tree path between the two cliques, so per-edge consistency chains
  // across the path.
  std::unordered_map<int, int> separator_columns;
  for (const SubViewLp& sv : out.subviews) {
    for (int c : sv.subview.separator) ++separator_columns[c];
  }
  std::unordered_map<int, std::vector<int64_t>> global_cuts;
  for (const SubViewLp& sv : out.subviews) {
    for (size_t d = 0; d < sv.subview.columns.size(); ++d) {
      const int col = sv.subview.columns[d];
      if (separator_columns.find(col) == separator_columns.end()) continue;
      std::vector<int64_t> cuts =
          BlockBoundaries(sv.partition, static_cast<int>(d));
      auto& dst = global_cuts[col];
      dst.insert(dst.end(), cuts.begin(), cuts.end());
    }
  }
  for (auto& [col, cuts] : global_cuts) {
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }
  for (const auto& [col, cuts] : global_cuts) {
    out.shared_cuts.emplace_back(col, cuts);
  }
  std::sort(out.shared_cuts.begin(), out.shared_cuts.end());

  // Refine every sub-view at the global cuts of its shared columns and split
  // regions per elementary cell.
  for (SubViewLp& sv : out.subviews) {
    std::vector<std::pair<int, std::vector<int64_t>>> cut_dims;
    for (size_t d = 0; d < sv.subview.columns.size(); ++d) {
      auto it = global_cuts.find(sv.subview.columns[d]);
      if (it != global_cuts.end() && !it->second.empty()) {
        cut_dims.emplace_back(static_cast<int>(d), it->second);
      }
    }
    if (cut_dims.empty()) continue;
    RefineRegionsAtCuts(&sv.partition, cut_dims);
    HYDRA_RETURN_IF_ERROR(SplitRegionsByCellKeys(&sv.partition, cut_dims));
  }

  // Allocate LP variables.
  for (SubViewLp& sv : out.subviews) {
    sv.first_var = out.problem.AddVariables(sv.partition.num_regions());
  }

  // (a) Total-size constraint per sub-view.
  for (const SubViewLp& sv : out.subviews) {
    LpConstraint c;
    c.label = "total";
    c.rhs = static_cast<double>(out.total_rows);
    for (int r = 0; r < sv.partition.num_regions(); ++r) {
      c.AddTerm(sv.first_var + r, 1.0);
    }
    out.problem.AddConstraint(std::move(c));
  }

  // (b) One LP row per assigned CC.
  for (const SubViewLp& sv : out.subviews) {
    for (size_t k = 0; k < sv.assigned_constraints.size(); ++k) {
      const int ci = sv.assigned_constraints[k];
      LpConstraint c;
      c.label = out.constraints[ci].label;
      c.rhs = static_cast<double>(out.constraints[ci].cardinality);
      for (int r = 0; r < sv.partition.num_regions(); ++r) {
        // Region labels index the sub-view's local predicate list, which is
        // ordered like assigned_constraints.
        if (sv.partition.regions[r].SatisfiesConstraint(static_cast<int>(k))) {
          c.AddTerm(sv.first_var + r, 1.0);
        }
      }
      out.problem.AddConstraint(std::move(c));
    }
  }

  // (c) Consistency constraints per clique-tree edge: equal mass per
  // elementary cell over the separator columns.
  for (size_t s = 0; s < out.subviews.size(); ++s) {
    const SubViewLp& child = out.subviews[s];
    if (child.subview.parent < 0 || child.subview.separator.empty()) continue;
    const SubViewLp& parent = out.subviews[child.subview.parent];

    auto cell_dims_for = [&](const SubViewLp& sv) {
      std::vector<std::pair<int, std::vector<int64_t>>> cut_dims;
      for (int col : child.subview.separator) {
        const auto cit = global_cuts.find(col);
        std::vector<int64_t> cuts =
            cit == global_cuts.end() ? std::vector<int64_t>{} : cit->second;
        const auto pos = std::find(sv.subview.columns.begin(),
                                   sv.subview.columns.end(), col);
        HYDRA_CHECK(pos != sv.subview.columns.end());
        cut_dims.emplace_back(
            static_cast<int>(pos - sv.subview.columns.begin()),
            std::move(cuts));
      }
      return cut_dims;
    };
    const auto child_dims = cell_dims_for(child);
    const auto parent_dims = cell_dims_for(parent);

    // One row per elementary cell over the separator: gather every
    // region's (packed cell key, signed term) and group by sorting — the
    // same rows a map would build, without a tree node (or heap key) per
    // cell. Child and parent pack with the same strides because both
    // cell_dims_for lists follow the separator's column order.
    std::vector<uint64_t> child_strides, parent_strides;
    if (!CellKeyStrides(child_dims, &child_strides) ||
        !CellKeyStrides(parent_dims, &parent_strides)) {
      return Status::ResourceExhausted(
          "separator's elementary-cell space exceeds 2^62 cells");
    }
    std::vector<std::pair<uint64_t, std::pair<int, double>>> terms;
    terms.reserve(child.partition.num_regions() +
                  parent.partition.num_regions());
    for (int r = 0; r < child.partition.num_regions(); ++r) {
      terms.emplace_back(
          BlockFlatKey(child.partition.regions[r].blocks.front(), child_dims,
                       child_strides),
          std::make_pair(child.first_var + r, 1.0));
    }
    for (int r = 0; r < parent.partition.num_regions(); ++r) {
      terms.emplace_back(
          BlockFlatKey(parent.partition.regions[r].blocks.front(),
                       parent_dims, parent_strides),
          std::make_pair(parent.first_var + r, -1.0));
    }
    std::sort(terms.begin(), terms.end());
    size_t begin = 0;
    for (size_t i = 1; i <= terms.size(); ++i) {
      if (i < terms.size() && terms[i].first == terms[begin].first) continue;
      LpConstraint c;
      c.rhs = 0;
      c.label = "consistency sv" + std::to_string(s);
      for (size_t k = begin; k < i; ++k) {
        c.AddTerm(terms[k].second.first, terms[k].second.second);
      }
      out.problem.AddConstraint(std::move(c));
      begin = i;
    }
  }

  return out;
}

}  // namespace hydra
