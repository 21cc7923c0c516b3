// LP Formulator (Section 4): builds one LP per view using region
// partitioning, with consistency constraints tying the marginal
// distributions of sub-views that share attributes.
//
// Consistency design: for every view column shared by two or more sub-views,
// the union of all sub-views' block boundaries along that column defines a
// global set of cut points. Every sub-view's regions are refined and split so
// each region lies within a single *elementary cell* of those cuts along all
// of its shared columns. Per clique-tree edge, the LP equates the per-cell
// mass of child and parent over the separator columns. Because every
// constraint boundary is a block boundary, no constraint changes truth value
// inside an elementary cell — which is what makes the summary generator's
// align-and-merge (and its value substitution within a cell) sound.

#ifndef HYDRA_HYDRA_FORMULATOR_H_
#define HYDRA_HYDRA_FORMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "hydra/preprocessor.h"
#include "hydra/view_graph.h"
#include "lp/model.h"
#include "partition/region_partition.h"

namespace hydra {

struct SubViewLp {
  SubView subview;
  // Region partition over the sub-view's local dimension space
  // (dimension i = subview.columns[i]).
  RegionPartition partition;
  // LP variable index of region 0; region r maps to first_var + r.
  int first_var = 0;
  // Indices (into the view's constraint list) assigned to this sub-view.
  std::vector<int> assigned_constraints;
};

struct ViewLp {
  LpProblem problem;
  std::vector<SubViewLp> subviews;
  uint64_t total_rows = 0;
  // Constraints after extracting the total-size CC (order preserved;
  // assigned_constraints indices refer to this list).
  std::vector<ViewConstraint> constraints;
  // Global elementary-cell cut points per shared view column (sorted); the
  // summary generator's align step groups rows by these cells.
  std::vector<std::pair<int, std::vector<int64_t>>> shared_cuts;
};

// Formulates the per-view LP. A constraint with a TRUE predicate is treated
// as the total-size constraint |view| = k (overriding the metadata row
// count); all others must have at least one atom. Several TRUE constraints
// must agree on k: kFailedPrecondition, naming two that differ, otherwise.
StatusOr<ViewLp> FormulateViewLp(const View& view,
                                 std::vector<ViewConstraint> constraints);

}  // namespace hydra

#endif  // HYDRA_HYDRA_FORMULATOR_H_
