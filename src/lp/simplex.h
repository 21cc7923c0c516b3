// Phase-I revised simplex solver for { Ax = b, x >= 0 } feasibility.
//
// The paper delegates LP feasibility to the Z3 SMT solver; this repository
// ships its own solver so the pipeline is self-contained. The implementation
// is a sparse revised simplex: the basis is held as a Markowitz-ordered
// sparse LU factorization with Forrest-Tomlin column-replacement updates
// (lp/basis_lu.h), FTRAN/BTRAN run against the L/U factors plus update file,
// the dual vector is maintained incrementally across pivots, and phase I
// prices Devex (reference-framework weights, updated sparsely through the
// pivot row) over a rotating candidate list. The solver has one phase and
// one pricing rule; the final values are recomputed through a factorization
// of the final basis in canonical column order, so the same basis always
// reports the same values. See docs/solver.md. The LPs have few
// constraints — tens to a few thousand — while the variable count ranges
// from a handful for Hydra's region partitioning to millions for DataSynth's
// grid partitioning, which the pricing candidate lists absorb gracefully.

#ifndef HYDRA_LP_SIMPLEX_H_
#define HYDRA_LP_SIMPLEX_H_

#include <vector>

#include "common/status.h"
#include "lp/model.h"

namespace hydra {

// A basis exported by one solve and importable as a warm start by another.
// Only meaningful for a problem with the same number of rows and variables;
// the solver re-validates (factorizes and checks x_B >= 0) on import and
// silently falls back to the cold all-artificial start when the basis is
// incompatible with the new problem.
struct SimplexBasis {
  int num_rows = 0;
  int num_vars = 0;
  // basic[row]: index of the structural variable pivoting on that row, or
  // -1 when the row is covered by its own artificial.
  std::vector<int> basic;

  bool empty() const { return basic.empty(); }
};

struct SimplexOptions {
  // Hard budget on the number of structural variables; mirrors the paper's
  // observation that the solver "crashes" on DataSynth's billion-variable
  // formulations. Exceeding it returns RESOURCE_EXHAUSTED.
  uint64_t max_variables = 50'000'000;
  // Forrest-Tomlin updates between refactorizations (0 = automatic: 256).
  // The factorization is also rebuilt early if the update file's nonzero
  // count outgrows the basis.
  int refactor_interval = 0;
  // Optional warm start (not owned; may be null or empty). Incompatible or
  // numerically unusable bases fall back to the cold start.
  const SimplexBasis* warm_start = nullptr;
  // When non-null, receives the final basis in canonical form for seeding
  // the next solve.
  SimplexBasis* export_basis = nullptr;
};

// Returns a basic feasible solution of { Ax = b, x >= 0 }, or:
//  * FAILED_PRECONDITION if the system is infeasible,
//  * RESOURCE_EXHAUSTED if it exceeds the variable budget or the pivoting
//    budget of 80*m + 10000 iterations.
StatusOr<LpSolution> SolveFeasibility(const LpProblem& problem,
                                      const SimplexOptions& options = {});

}  // namespace hydra

#endif  // HYDRA_LP_SIMPLEX_H_
