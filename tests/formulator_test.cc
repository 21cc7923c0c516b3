// Unit tests for hydra/formulator: LP structure, solvability, consistency.

#include <gtest/gtest.h>

#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "lp/integerize.h"
#include "lp/simplex.h"
#include "workload/toy.h"

namespace hydra {
namespace {

View SimpleView(int columns, int64_t width, uint64_t total) {
  View v;
  v.relation = 0;
  for (int c = 0; c < columns; ++c) {
    v.columns.push_back(AttrRef{0, c});
    v.domains.push_back(Interval(0, width));
  }
  v.total_rows = total;
  return v;
}

ViewConstraint Vc(DnfPredicate p, uint64_t k, const std::string& label) {
  ViewConstraint vc;
  vc.predicate = std::move(p);
  vc.cardinality = k;
  vc.label = label;
  return vc;
}

TEST(FormulatorTest, PersonExampleFourVariables) {
  // Section 3.2's Person view: the LP must have exactly the 4 region
  // variables of Figure 4b (single sub-view, no consistency constraints).
  View v = SimpleView(2, 100, 8000);
  std::vector<ViewConstraint> vcs = {
      Vc(PredicateAllOf({AtomLess(0, 40), AtomLess(1, 40)}), 1000, "c1"),
      Vc(PredicateAllOf({AtomRange(0, 20, 60), AtomRange(1, 20, 60)}), 2000,
         "c2"),
  };
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok()) << lp.status().ToString();
  EXPECT_EQ(lp->problem.num_vars(), 4);
  EXPECT_EQ(lp->subviews.size(), 1u);
  // 1 total + 2 CC rows.
  EXPECT_EQ(lp->problem.num_constraints(), 3);

  auto sol = SolveFeasibility(lp->problem);
  ASSERT_TRUE(sol.ok());
  EXPECT_LT(lp->problem.MaxViolation(sol->values), 1e-6);
}

TEST(FormulatorTest, TrueCcOverridesTotalRows) {
  View v = SimpleView(1, 10, 500);
  std::vector<ViewConstraint> vcs = {Vc(DnfPredicate::True(), 777, "size")};
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(lp->total_rows, 777u);
}

TEST(FormulatorTest, AgreeingTrueCcsAreAccepted) {
  View v = SimpleView(1, 10, 500);
  const std::vector<ViewConstraint> vcs = {
      Vc(DnfPredicate::True(), 777, "a"),
      Vc(DnfPredicate::True(), 777, "b"),
  };
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok()) << lp.status().ToString();
  EXPECT_EQ(lp->total_rows, 777u);
}

TEST(FormulatorTest, DisagreeingTrueCcsRejected) {
  View v = SimpleView(1, 10, 500);
  const std::vector<ViewConstraint> vcs = {
      Vc(DnfPredicate::True(), 777, "|S|"),
      Vc(PredicateOf(AtomLess(0, 5)), 100, "half"),
      Vc(DnfPredicate::True(), 778, "copy"),
  };
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_EQ(lp.status().code(), StatusCode::kFailedPrecondition)
      << lp.status().ToString();
  EXPECT_EQ(lp.status().message(),
            "total-size CCs disagree: |S| = 777, copy = 778");
}

TEST(FormulatorTest, NoConstraintsNoVariables) {
  View v = SimpleView(2, 10, 100);
  auto lp = FormulateViewLp(v, {});
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(lp->problem.num_vars(), 0);
  EXPECT_TRUE(lp->subviews.empty());
}

TEST(FormulatorTest, FalseCcRejected) {
  View v = SimpleView(1, 10, 100);
  auto lp = FormulateViewLp(v, {Vc(DnfPredicate::False(), 5, "bad")});
  EXPECT_FALSE(lp.ok());
}

TEST(FormulatorTest, SharedColumnCreatesConsistencyRows) {
  // CCs on (0,1) and (1,2): two sub-views sharing column 1; the LP must
  // carry consistency rows tying the marginals.
  View v = SimpleView(3, 100, 1000);
  std::vector<ViewConstraint> vcs = {
      Vc(PredicateAllOf({AtomRange(0, 10, 50), AtomRange(1, 20, 60)}), 300,
         "ab"),
      Vc(PredicateAllOf({AtomRange(1, 30, 80), AtomRange(2, 5, 95)}), 400,
         "bc"),
  };
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok());
  ASSERT_EQ(lp->subviews.size(), 2u);
  // More rows than just totals (2) + CCs (2) means consistency rows exist.
  EXPECT_GT(lp->problem.num_constraints(), 4);
  EXPECT_FALSE(lp->shared_cuts.empty());

  auto sol = SolveFeasibility(lp->problem);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(lp->problem.MaxViolation(sol->values), 1e-6);

  // Solved integer counts per region: both sub-views total 1000 and CCs hold.
  const auto ints = IntegerizeSolution(lp->problem, sol->values);
  EXPECT_EQ(ints.max_absolute_violation, 0);
  for (const SubViewLp& sv : lp->subviews) {
    int64_t total = 0;
    for (int r = 0; r < sv.partition.num_regions(); ++r) {
      total += ints.values[sv.first_var + r];
    }
    EXPECT_EQ(total, 1000);
  }
}

TEST(FormulatorTest, RegionsRespectSharedCutsAfterSplitting) {
  View v = SimpleView(3, 100, 1000);
  std::vector<ViewConstraint> vcs = {
      Vc(PredicateAllOf({AtomRange(0, 10, 50), AtomRange(1, 20, 60)}), 300,
         "ab"),
      Vc(PredicateAllOf({AtomRange(1, 30, 80), AtomRange(2, 5, 95)}), 400,
         "bc"),
  };
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok());
  // Every region of every sub-view must lie within one elementary cell along
  // each shared column.
  for (const SubViewLp& sv : lp->subviews) {
    for (size_t d = 0; d < sv.subview.columns.size(); ++d) {
      const int col = sv.subview.columns[d];
      const std::vector<int64_t>* cuts = nullptr;
      for (const auto& [c, cs] : lp->shared_cuts) {
        if (c == col) cuts = &cs;
      }
      if (cuts == nullptr) continue;
      for (const Region& region : sv.partition.regions) {
        // Cell index of the region's min along this dim must equal the cell
        // index of its max.
        int64_t mn = INT64_MAX, mx = INT64_MIN;
        for (const Block& b : region.blocks) {
          mn = std::min(mn, b.dims[d].Min());
          mx = std::max(mx, b.dims[d].Max());
        }
        const auto cell_of = [&](int64_t val) {
          return std::upper_bound(cuts->begin(), cuts->end(), val) -
                 cuts->begin();
        };
        EXPECT_EQ(cell_of(mn), cell_of(mx));
      }
    }
  }
}

TEST(FormulatorTest, ToyRviewLpSolvable) {
  ToyEnvironment env = MakeToyEnvironment();
  Preprocessor pre(env.schema);
  auto views = pre.BuildViews();
  ASSERT_TRUE(views.ok());
  auto mapped = pre.MapConstraints(*views, env.ccs);
  ASSERT_TRUE(mapped.ok());
  const int r = env.schema.RelationIndex("R");
  auto lp = FormulateViewLp((*views)[r], (*mapped)[r]);
  ASSERT_TRUE(lp.ok()) << lp.status().ToString();
  EXPECT_GT(lp->problem.num_vars(), 0);
  auto sol = SolveFeasibility(lp->problem);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(lp->problem.MaxViolation(sol->values), 1e-5);
}

TEST(FormulatorTest, InfeasibleCcsDetected) {
  // Sub-count exceeds the total: no database can satisfy this.
  View v = SimpleView(1, 100, 10);
  std::vector<ViewConstraint> vcs = {
      Vc(PredicateOf(AtomRange(0, 0, 50)), 500, "too_big"),
  };
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok());
  EXPECT_FALSE(SolveFeasibility(lp->problem).ok());
}

TEST(FormulatorTest, DnfConstraintFormulated) {
  View v = SimpleView(2, 100, 1000);
  DnfPredicate dnf =
      PredicateAllOf({AtomLess(0, 30), AtomLess(1, 30)})
          .Or(PredicateOf(AtomGreaterEqual(0, 70)));
  auto lp = FormulateViewLp(v, {Vc(dnf, 250, "dnf")});
  ASSERT_TRUE(lp.ok());
  auto sol = SolveFeasibility(lp->problem);
  ASSERT_TRUE(sol.ok());
  // Verify the CC row: regions satisfying the DNF sum to 250.
  const auto ints = IntegerizeSolution(lp->problem, sol->values);
  int64_t satisfied = 0;
  const SubViewLp& sv = lp->subviews[0];
  for (int r = 0; r < sv.partition.num_regions(); ++r) {
    if (sv.partition.regions[r].SatisfiesConstraint(0)) {
      satisfied += ints.values[sv.first_var + r];
    }
  }
  EXPECT_EQ(satisfied, 250);
}

}  // namespace
}  // namespace hydra
