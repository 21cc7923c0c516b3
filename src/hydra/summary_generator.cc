#include "hydra/summary_generator.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/logging.h"

namespace hydra {

namespace {

// A row of the view solution accumulated by the align-and-merge loop.
struct WorkingRow {
  Row values;  // in WorkingSolution::columns order
  int64_t count = 0;
  // Per merged sub-view (in merge order), the local LP variable the row's
  // values came from, or -1 when that sub-view had no row to pad with;
  // later edges read classes off it.
  std::vector<int> origin;
  // The row's class on the edge being merged.
  int edge_class = 0;
};

struct WorkingSolution {
  std::vector<int> columns;  // view column indices, in accumulation order
  std::vector<WorkingRow> rows;
};

// Instantiates the sub-view solution: one row per variable with positive
// count, at the variable's smallest point (Section 5.2).
std::vector<WorkingRow> InstantiateSubView(const SubViewLp& sv,
                                           const std::vector<int64_t>& x) {
  std::vector<WorkingRow> rows;
  for (int v = 0; v < sv.num_vars(); ++v) {
    const int64_t count = x[sv.first_var + v];
    if (count <= 0) continue;
    WorkingRow row;
    row.values = sv.variables[v].min_point;
    row.count = count;
    row.origin = {v};
    rows.push_back(std::move(row));
  }
  return rows;
}

// Solution Sorting (Section 5.1.2): orders rows by the merged edge's class,
// then by their values on the shared columns. Pairing within a class is
// what makes the merge sound: consistency rows equate child and parent
// mass per class, and a child row keeps its region label under any
// separator value of its class (see formulator.h).
void SortForAlignment(std::vector<WorkingRow>* rows,
                      const std::vector<int>& positions) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&positions](const WorkingRow& a, const WorkingRow& b) {
                     if (a.edge_class != b.edge_class) {
                       return a.edge_class < b.edge_class;
                     }
                     for (int p : positions) {
                       if (a.values[p] != b.values[p]) {
                         return a.values[p] < b.values[p];
                       }
                     }
                     return false;
                   });
}

}  // namespace

StatusOr<ViewSummary> SummaryGenerator::BuildViewSummary(
    const View& view, const ViewLp& lp,
    const std::vector<int64_t>& solution) const {
  HYDRA_CHECK(static_cast<int>(solution.size()) == lp.problem.num_vars());

  WorkingSolution work;
  for (size_t s = 0; s < lp.subviews.size(); ++s) {
    const SubViewLp& sv = lp.subviews[s];
    std::vector<WorkingRow> incoming = InstantiateSubView(sv, solution);

    if (s == 0) {
      work.columns = sv.subview.columns;
      work.rows = std::move(incoming);
      continue;
    }

    // Shared columns between the accumulated solution and this sub-view.
    std::vector<int> shared;
    std::vector<int> new_cols;
    for (int c : sv.subview.columns) {
      if (std::find(work.columns.begin(), work.columns.end(), c) !=
          work.columns.end()) {
        shared.push_back(c);
      } else {
        new_cols.push_back(c);
      }
    }

    // Positions of the shared columns in each side's row layout.
    std::vector<int> work_pos, sv_pos;
    for (int c : shared) {
      work_pos.push_back(static_cast<int>(
          std::find(work.columns.begin(), work.columns.end(), c) -
          work.columns.begin()));
      sv_pos.push_back(static_cast<int>(
          std::find(sv.subview.columns.begin(), sv.subview.columns.end(), c) -
          sv.subview.columns.begin()));
    }
    std::vector<int> new_pos;
    for (int c : new_cols) {
      new_pos.push_back(static_cast<int>(
          std::find(sv.subview.columns.begin(), sv.subview.columns.end(), c) -
          sv.subview.columns.begin()));
    }

    // Classes of the edge to the parent: the accumulated side's come from
    // the parent variable each row holds. Without classes (an empty
    // separator) every row is in class 0.
    const SeparatorClasses& edge = sv.parent_edge;
    const int parent = sv.subview.parent;
    for (WorkingRow& row : work.rows) {
      const int v = parent >= 0 ? row.origin[parent] : -1;
      row.edge_class =
          edge.parent_class.empty() ? 0 : v < 0 ? -1 : edge.parent_class[v];
    }
    for (WorkingRow& row : incoming) {
      row.edge_class =
          edge.child_class.empty() ? 0 : edge.child_class[row.origin[0]];
    }
    SortForAlignment(&work.rows, work_pos);
    SortForAlignment(&incoming, sv_pos);

    // Row Splitting + position-based merge (Sections 5.1.2, 5.1.3), one
    // class at a time: pair off counts in sorted order; shared values come
    // from the accumulated solution, new columns from the incoming
    // sub-view.
    std::vector<WorkingRow> merged;
    merged.reserve(std::max(work.rows.size(), incoming.size()));
    const auto emit = [&](const WorkingRow& w, const WorkingRow* in,
                          int64_t count) {
      WorkingRow row;
      row.values.reserve(w.values.size() + new_pos.size());
      row.values = w.values;
      for (size_t k = 0; k < new_pos.size(); ++k) {
        row.values.push_back(in != nullptr ? in->values[new_pos[k]]
                                           : view.domains[new_cols[k]].lo);
      }
      row.count = count;
      row.origin = w.origin;
      row.origin.push_back(in != nullptr ? in->origin[0] : -1);
      merged.push_back(std::move(row));
    };
    constexpr int kDone = std::numeric_limits<int>::max();
    const size_t wn = work.rows.size(), in = incoming.size();
    size_t wi = 0, ii = 0;
    int64_t spill = 0;
    while (wi < wn || ii < in) {
      const int cls = std::min(wi < wn ? work.rows[wi].edge_class : kDone,
                               ii < in ? incoming[ii].edge_class : kDone);
      size_t wend = wi, iend = ii;
      while (wend < wn && work.rows[wend].edge_class == cls) ++wend;
      while (iend < in && incoming[iend].edge_class == cls) ++iend;
      int64_t ileft = ii < iend ? incoming[ii].count : 0;
      for (; wi < wend; ++wi) {
        int64_t wleft = work.rows[wi].count;
        while (wleft > 0 && ii < iend) {
          const int64_t take = std::min(wleft, ileft);
          emit(work.rows[wi], &incoming[ii], take);
          wleft -= take;
          ileft -= take;
          if (ileft == 0 && ++ii < iend) ileft = incoming[ii].count;
        }
        // Integerization can leave a class short on the incoming side: pad
        // with the incoming row just before the class's end (its own last
        // row when it had any).
        if (wleft > 0) {
          const WorkingRow* near =
              in == 0 ? nullptr : &incoming[ii > 0 ? ii - 1 : 0];
          emit(work.rows[wi], near, wleft);
        }
      }
      // Excess incoming mass of the class: attach it to the last merged row
      // (positive-only spill, never lost).
      int64_t excess = ii < iend ? ileft : 0;
      for (size_t k = ii + 1; k < iend; ++k) excess += incoming[k].count;
      ii = iend;
      if (merged.empty()) {
        spill += excess;
      } else {
        merged.back().count += excess;
      }
    }
    if (!merged.empty()) merged.back().count += spill;

    work.columns.insert(work.columns.end(), new_cols.begin(), new_cols.end());
    work.rows = std::move(merged);
  }

  // Assemble the final view summary in view-column order; columns untouched
  // by any constraint are instantiated at their domain minimum.
  ViewSummary out;
  out.relation = view.relation;
  out.columns = view.columns;
  std::vector<int> position(view.num_columns(), -1);
  for (size_t i = 0; i < work.columns.size(); ++i) {
    position[work.columns[i]] = static_cast<int>(i);
  }
  if (work.rows.empty()) {
    // No constrained sub-views (or an all-zero solution): a single group of
    // identical tuples at the domain minimum.
    if (lp.total_rows > 0) {
      SolutionRow row;
      for (int c = 0; c < view.num_columns(); ++c) {
        row.values.push_back(view.domains[c].lo);
      }
      row.count = static_cast<int64_t>(lp.total_rows);
      out.rows.push_back(std::move(row));
    }
    return out;
  }
  out.rows.reserve(work.rows.size());
  for (const WorkingRow& wrow : work.rows) {
    SolutionRow row;
    row.count = wrow.count;
    row.values.resize(view.num_columns());
    for (int c = 0; c < view.num_columns(); ++c) {
      row.values[c] = position[c] >= 0 ? wrow.values[position[c]]
                                       : view.domains[c].lo;
    }
    out.rows.push_back(std::move(row));
  }
  // Compact: merge rows with identical values.
  std::sort(out.rows.begin(), out.rows.end(),
            [](const SolutionRow& a, const SolutionRow& b) {
              return a.values < b.values;
            });
  std::vector<SolutionRow> compact;
  for (SolutionRow& row : out.rows) {
    if (!compact.empty() && compact.back().values == row.values) {
      compact.back().count += row.count;
    } else {
      compact.push_back(std::move(row));
    }
  }
  out.rows = std::move(compact);
  return out;
}

StatusOr<DatabaseSummary> SummaryGenerator::BuildDatabaseSummary(
    const std::vector<View>& views,
    std::vector<ViewSummary> view_summaries) const {
  HYDRA_CHECK(views.size() == view_summaries.size());
  const int n = schema_.num_relations();

  DatabaseSummary out;
  out.schema = schema_;
  out.extra_tuples.assign(n, 0);

  // Step (3): referential repair in dependents-first order — every view is
  // made consistent with its direct dependencies before those are processed,
  // so additions cascade exactly once (Section 5.3; DAG-safe via topological
  // order).
  HYDRA_ASSIGN_OR_RETURN(const std::vector<int> order,
                         schema_.DependentsFirstOrder());

  // combo -> first row index, per view.
  std::vector<std::map<Row, int>> first_row(n);
  auto index_view = [&](int rel) {
    first_row[rel].clear();
    for (size_t i = 0; i < view_summaries[rel].rows.size(); ++i) {
      first_row[rel].emplace(view_summaries[rel].rows[i].values,
                             static_cast<int>(i));
    }
  };
  for (int r = 0; r < n; ++r) index_view(r);

  for (int r : order) {
    for (int dep : schema_.DirectDependencies(r)) {
      // Projection of V_r columns onto V_dep columns.
      std::vector<int> proj;
      proj.reserve(views[dep].columns.size());
      for (const AttrRef& ref : views[dep].columns) {
        const int col = views[r].ColumnOf(ref);
        HYDRA_CHECK_MSG(col >= 0, "view of "
                                      << schema_.relation(r).name()
                                      << " is missing borrowed attribute "
                                      << schema_.QualifiedName(ref));
        proj.push_back(col);
      }
      for (const SolutionRow& row : view_summaries[r].rows) {
        Row combo;
        combo.reserve(proj.size());
        for (int c : proj) combo.push_back(row.values[c]);
        auto it = first_row[dep].find(combo);
        if (it == first_row[dep].end()) {
          SolutionRow added;
          added.values = combo;
          added.count = 1;
          first_row[dep].emplace(
              std::move(combo),
              static_cast<int>(view_summaries[dep].rows.size()));
          view_summaries[dep].rows.push_back(std::move(added));
          ++out.extra_tuples[dep];
        }
      }
    }
  }

  // Prefix sums per view (PK of the first tuple of each row group).
  std::vector<std::vector<int64_t>> view_prefix(n);
  for (int r = 0; r < n; ++r) {
    auto& prefix = view_prefix[r];
    prefix.resize(view_summaries[r].rows.size());
    int64_t running = 0;
    for (size_t i = 0; i < view_summaries[r].rows.size(); ++i) {
      prefix[i] = running;
      running += view_summaries[r].rows[i].count;
    }
  }

  // Step (4): relation summaries.
  out.relations.resize(n);
  for (int r = 0; r < n; ++r) {
    const Relation& rel = schema_.relation(r);
    RelationSummary& rs = out.relations[r];
    rs.relation = r;

    struct ColumnSource {
      bool is_fk = false;
      int view_column = -1;  // for data attributes
      int fk_target = -1;    // for FKs: referenced relation
      std::vector<int> proj;  // for FKs: projection onto the target's view
    };
    std::vector<ColumnSource> sources;
    for (int a = 0; a < rel.num_attributes(); ++a) {
      const Attribute& attr = rel.attribute(a);
      if (attr.kind == AttributeKind::kPrimaryKey) continue;
      rs.attr_indices.push_back(a);
      ColumnSource src;
      if (attr.kind == AttributeKind::kData) {
        src.view_column = views[r].ColumnOf(AttrRef{r, a});
        HYDRA_CHECK(src.view_column >= 0);
      } else {
        src.is_fk = true;
        src.fk_target = attr.fk_target;
        for (const AttrRef& ref : views[attr.fk_target].columns) {
          const int col = views[r].ColumnOf(ref);
          HYDRA_CHECK(col >= 0);
          src.proj.push_back(col);
        }
      }
      sources.push_back(std::move(src));
    }

    rs.rows.reserve(view_summaries[r].rows.size());
    for (const SolutionRow& vrow : view_summaries[r].rows) {
      SolutionRow row;
      row.count = vrow.count;
      row.values.reserve(sources.size());
      for (const ColumnSource& src : sources) {
        if (!src.is_fk) {
          row.values.push_back(vrow.values[src.view_column]);
          continue;
        }
        Row combo;
        combo.reserve(src.proj.size());
        for (int c : src.proj) combo.push_back(vrow.values[c]);
        auto it = first_row[src.fk_target].find(combo);
        if (it == first_row[src.fk_target].end()) {
          return Status::Internal(
              "referential repair missed a combination for FK into " +
              schema_.relation(src.fk_target).name());
        }
        row.values.push_back(view_prefix[src.fk_target][it->second]);
      }
      rs.rows.push_back(std::move(row));
    }
    rs.Finalize();
  }
  return out;
}

}  // namespace hydra
