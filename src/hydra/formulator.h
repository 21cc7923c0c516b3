// LP Formulator (Section 4): builds one LP per view using region
// partitioning, with consistency constraints tying the marginal
// distributions of sub-views that share attributes.
//
// Consistency design: each clique-tree edge partitions its separator's
// space into *classes*. The child's and the parent's blocks (Algorithm 1's
// output, each a product of per-dimension value sets) project onto the
// separator as products too; a class is a maximal set of separator points
// covered by the same set of those block projections — Algorithm 1 run in
// the separator's space with the projections as its constraints. Every
// block projection is therefore a union of classes. One LP variable is a
// region's points that fall in one class of every edge at its sub-view, and
// each class carries one consistency row: child mass = parent mass.
//
// Why the summary generator may substitute separator values within a class
// (its align-and-merge pairs a child row with a parent row of the same
// class and keeps the parent's separator values): a child variable lies in
// one block B = B_sep × B_rest of its region, and its class lies inside
// B_sep, so any other separator value of that class lands in B again — the
// merged point keeps the child's region label. The parent's own values
// never change.
//
// A *continuation column* lies in a sub-view's parent separator and in one
// of its child separators. The merge hands such a column's value down from
// the parent side, and the sub-view's child edges must still find it in the
// class of the sub-view's own value. So the edge to the sub-view's parent
// also splits its classes at the column's global cuts (every sub-view's
// block boundaries along it): a class of that edge fixes the column's
// elementary cell, and no block of any sub-view changes membership inside
// a cell, so the inherited value keeps every child-edge class. Edges below
// need no cut, and neither do columns shared only by sibling separators:
// the merge keeps the sub-view's own values for all of its children.

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

// The classes of the clique-tree edge between a sub-view and its parent.
struct SeparatorClasses {
  // Class k is region k of this partition of the separator's space
  // (dimension i = subview.separator[i]).
  RegionPartition classes;
  // Class of every LP variable of the sub-view, and of its parent.
  std::vector<int> child_class;
  std::vector<int> parent_class;
};

// One LP variable: the points of one region that lie in one class of every
// edge at the sub-view.
struct RegionPiece {
  int region = -1;
  // The piece's lexicographically smallest point (local dimensions), where
  // the summary instantiates it (Section 5.2).
  Row min_point;
};

struct SubViewLp {
  SubView subview;
  // Region partition over the sub-view's local dimension space
  // (dimension i = subview.columns[i]).
  RegionPartition partition;
  // Variable v is LP variable first_var + v.
  std::vector<RegionPiece> variables;
  int first_var = 0;
  // Indices (into the view's constraint list) assigned to this sub-view.
  std::vector<int> assigned_constraints;
  // Empty (no classes) for the root and for an empty separator.
  SeparatorClasses parent_edge;

  int num_vars() const { return static_cast<int>(variables.size()); }
};

struct ViewLp {
  LpProblem problem;
  std::vector<SubViewLp> subviews;
  uint64_t total_rows = 0;
  // Constraints after extracting the total-size CC (order preserved;
  // assigned_constraints indices refer to this list).
  std::vector<ViewConstraint> constraints;
};

// Formulates the per-view LP. A constraint with a TRUE predicate is treated
// as the total-size constraint |view| = k (overriding the metadata row
// count); all others must have at least one atom. Several TRUE constraints
// must agree on k: kFailedPrecondition, naming two that differ, otherwise.
// kResourceExhausted when a sub-view's class combinations cannot be keyed.
StatusOr<ViewLp> FormulateViewLp(const View& view,
                                 std::vector<ViewConstraint> constraints);

}  // namespace hydra

#endif  // HYDRA_HYDRA_FORMULATOR_H_
