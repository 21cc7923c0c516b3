// LP problem container: equality constraints over non-negative variables.
//
// The regeneration LPs (Figures 6/7 of the paper) are pure feasibility
// problems of the form { Ax = b, x >= 0 } where every entry of A is 0/1 and
// b holds constraint cardinalities. Constraint rows are stored sparsely; the
// solver in lp/simplex.h finds a basic feasible solution.

#ifndef HYDRA_LP_MODEL_H_
#define HYDRA_LP_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hydra {

// sum_j coeff_j * x_{var_j} = rhs
struct LpConstraint {
  std::vector<int> vars;
  std::vector<double> coeffs;
  double rhs = 0;
  std::string label;  // provenance, for error reports

  void AddTerm(int var, double coeff) {
    vars.push_back(var);
    coeffs.push_back(coeff);
  }
};

class LpProblem {
 public:
  // Returns the index of the new variable.
  int AddVariable() { return num_vars_++; }
  int AddVariables(int n) {
    const int first = num_vars_;
    num_vars_ += n;
    return first;
  }

  void AddConstraint(LpConstraint c) { constraints_.push_back(std::move(c)); }

  int num_vars() const { return num_vars_; }
  int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }
  const std::vector<LpConstraint>& constraints() const { return constraints_; }

  // Total number of nonzero coefficients.
  uint64_t NumNonZeros() const;

  // Maximum violation |Ax - b| of `x` over all constraints.
  double MaxViolation(const std::vector<double>& x) const;

 private:
  int num_vars_ = 0;
  std::vector<LpConstraint> constraints_;
};

struct LpSolution {
  std::vector<double> values;
  // Phase-I pivots spent reaching feasibility (0 when an accepted warm
  // start is already feasible).
  int iterations = 0;
  // True when an imported warm-start basis was accepted (the solve did not
  // start from the all-artificial basis).
  bool warm_started = false;
};

}  // namespace hydra

#endif  // HYDRA_LP_MODEL_H_
