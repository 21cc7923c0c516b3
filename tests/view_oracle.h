// View-level CC oracle shared by the summary and property tests.
//
// Runs each view through the regeneration steps one at a time (formulate,
// solve, integerize, build the view summary) and counts every view CC by
// evaluating its DNF predicate on the view summary's rows. A count may miss
// its cardinality by at most that view's integerizer residual, so it must
// be exact wherever the residual is 0. The count uses none of the
// formulator's regions or classes, so an unsound align-and-merge shows up
// here as a miscounted CC.

#ifndef HYDRA_TESTS_VIEW_ORACLE_H_
#define HYDRA_TESTS_VIEW_ORACLE_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "hydra/summary_generator.h"
#include "lp/integerize.h"
#include "lp/simplex.h"
#include "query/constraint.h"

namespace hydra {

inline void ExpectViewCcsWithinResidual(
    const Schema& schema, const std::vector<CardinalityConstraint>& ccs) {
  Preprocessor pre(schema);
  auto views = pre.BuildViews();
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  auto mapped = pre.MapConstraints(*views, ccs);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const SummaryGenerator generator(schema);
  for (size_t v = 0; v < views->size(); ++v) {
    const View& view = (*views)[v];
    SCOPED_TRACE("view " + schema.relation(view.relation).name());
    auto lp = FormulateViewLp(view, (*mapped)[v]);
    ASSERT_TRUE(lp.ok()) << lp.status().ToString();
    IntegerizeResult ints;
    if (lp->problem.num_vars() > 0) {
      auto solution = SolveFeasibility(lp->problem);
      ASSERT_TRUE(solution.ok()) << solution.status().ToString();
      ints = IntegerizeSolution(lp->problem, solution->values);
    }
    auto summary = generator.BuildViewSummary(view, *lp, ints.values);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    for (const ViewConstraint& vc : (*mapped)[v]) {
      int64_t count = 0;
      for (const SolutionRow& row : summary->rows) {
        if (vc.predicate.Eval(row.values)) count += row.count;
      }
      EXPECT_LE(std::llabs(count - static_cast<int64_t>(vc.cardinality)),
                ints.max_absolute_violation)
          << vc.label << ": " << count << " rows, want " << vc.cardinality;
    }
  }
}

}  // namespace hydra

#endif  // HYDRA_TESTS_VIEW_ORACLE_H_
