// Warm starts, Devex edge cases, LU recovery, and cross-configuration
// solution identity for the revised simplex.
//
// The identity tests pin the default solver's path independence: the
// reported solution stays byte-identical across refactorization schedules
// and when a solve is re-seeded with its own final basis.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hydra/regenerator.h"
#include "hydra/summary_io.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "workload/toy.h"

namespace hydra {
namespace {

std::string SummaryBytes(const DatabaseSummary& summary,
                         const std::string& tag) {
  const auto path =
      (std::filesystem::temp_directory_path() / ("hydra_ws_" + tag + ".bin"))
          .string();
  auto bytes = WriteSummary(summary, path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return data;
}

LpConstraint MakeConstraint(std::vector<int> vars, double rhs) {
  LpConstraint c;
  for (int v : vars) c.AddTerm(v, 1.0);
  c.rhs = rhs;
  return c;
}

// Random feasible 0/1 system with a known witness.
LpProblem RandomFeasible(int n, int m, double density, uint64_t seed,
                         int64_t value_cap = 1000) {
  Rng rng(seed);
  std::vector<int64_t> witness(n);
  for (int j = 0; j < n; ++j) witness[j] = rng.NextInt(0, value_cap);
  LpProblem p;
  p.AddVariables(n);
  for (int i = 0; i < m; ++i) {
    LpConstraint c;
    int64_t rhs = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(density)) {
        c.AddTerm(j, 1.0);
        rhs += witness[j];
      }
    }
    c.rhs = static_cast<double>(rhs);
    p.AddConstraint(std::move(c));
  }
  return p;
}

// ---- cross-configuration identity ----------------------------------------

TEST(SimplexPathIndependenceTest, SolutionsIdenticalAcrossRefactorSchedules) {
  LpProblem p = RandomFeasible(200, 40, 0.25, 99);
  SimplexOptions base;
  auto a = SolveFeasibility(p, base);
  SimplexOptions frequent = base;
  frequent.refactor_interval = 3;
  auto b = SolveFeasibility(p, frequent);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->values, b->values);
}

TEST(SimplexPathIndependenceTest, WarmAndColdStartsAgreeByteForByte) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    LpProblem p = RandomFeasible(90, 20, 0.35, seed * 31 + 11);
    SimplexOptions cold;
    SimplexBasis exported;
    cold.export_basis = &exported;
    auto first = SolveFeasibility(p, cold);
    ASSERT_TRUE(first.ok());
    ASSERT_FALSE(exported.empty());

    // Re-solve the same problem seeded with its own final basis: the warm
    // start must be accepted and the solution must not move.
    SimplexOptions warm;
    warm.warm_start = &exported;
    auto second = SolveFeasibility(p, warm);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->warm_started) << "seed " << seed;
    EXPECT_EQ(first->values, second->values) << "seed " << seed;
    // A basis that is already feasible skips phase I outright.
    EXPECT_EQ(second->iterations, 0) << "seed " << seed;
  }
}

// ---- warm-start fallback -------------------------------------------------

TEST(SimplexWarmStartTest, ShapeMismatchFallsBackToColdStart) {
  LpProblem p = RandomFeasible(50, 10, 0.4, 5);
  SimplexBasis bogus;
  bogus.num_rows = 7;  // wrong m
  bogus.num_vars = 50;
  bogus.basic.assign(7, -1);
  SimplexOptions options;
  options.warm_start = &bogus;
  auto sol = SolveFeasibility(p, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->warm_started);
  EXPECT_LT(p.MaxViolation(sol->values), 1e-5);
}

TEST(SimplexWarmStartTest, DuplicateColumnsInBasisFallBackToColdStart) {
  LpProblem p = RandomFeasible(50, 10, 0.4, 6);
  SimplexBasis bogus;
  bogus.num_rows = 10;
  bogus.num_vars = 50;
  bogus.basic.assign(10, 3);  // variable 3 claimed by every row
  SimplexOptions options;
  options.warm_start = &bogus;
  auto sol = SolveFeasibility(p, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->warm_started);
  EXPECT_LT(p.MaxViolation(sol->values), 1e-5);
}

TEST(SimplexWarmStartTest, SingularBasisFallsBackToColdStart) {
  // x0 appears in no constraint; a basis naming it is singular.
  LpProblem p;
  p.AddVariables(3);
  p.AddConstraint(MakeConstraint({1, 2}, 10));
  p.AddConstraint(MakeConstraint({1}, 4));
  SimplexBasis bogus;
  bogus.num_rows = 2;
  bogus.num_vars = 3;
  bogus.basic = {0, 1};  // column 0 is empty -> structurally singular
  SimplexOptions options;
  options.warm_start = &bogus;
  auto sol = SolveFeasibility(p, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->warm_started);
  EXPECT_LT(p.MaxViolation(sol->values), 1e-6);
}

TEST(SimplexWarmStartTest, InfeasibleBasisValuesFallBackToColdStart) {
  // The exported basis of one problem imported into a problem with a
  // different right-hand side that makes x_B negative: must cold-start and
  // still solve.
  LpProblem a;
  a.AddVariables(3);
  a.AddConstraint(MakeConstraint({0, 1}, 10));
  a.AddConstraint(MakeConstraint({1, 2}, 4));
  SimplexBasis exported;
  SimplexOptions first;
  first.export_basis = &exported;
  ASSERT_TRUE(SolveFeasibility(a, first).ok());

  LpProblem b;
  b.AddVariables(3);
  b.AddConstraint(MakeConstraint({0, 1}, 2));
  b.AddConstraint(MakeConstraint({1, 2}, 9));  // basis values go negative
  SimplexOptions second;
  second.warm_start = &exported;
  auto sol = SolveFeasibility(b, second);
  ASSERT_TRUE(sol.ok());
  EXPECT_LT(b.MaxViolation(sol->values), 1e-6);
}

TEST(SimplexWarmStartTest, CompatibleBasisAcceleratesSimilarProblem) {
  // Same structure, slightly different cardinalities: the warm start must
  // be accepted and cut phase I down to a handful of pivots.
  LpProblem a = RandomFeasible(400, 60, 0.2, 42);
  SimplexBasis exported;
  SimplexOptions first;
  first.export_basis = &exported;
  auto sol_a = SolveFeasibility(a, first);
  ASSERT_TRUE(sol_a.ok());

  // Perturb b by re-deriving it from a slightly different witness on the
  // same sparsity pattern.
  LpProblem b = RandomFeasible(400, 60, 0.2, 42, /*value_cap=*/1001);
  SimplexOptions warm;
  warm.warm_start = &exported;
  auto sol_b = SolveFeasibility(b, warm);
  ASSERT_TRUE(sol_b.ok());
  EXPECT_LT(b.MaxViolation(sol_b->values), 1e-5);
}

// ---- Devex degenerate edge cases -----------------------------------------

TEST(SimplexDevexTest, DegenerateZeroRhsChainTerminates) {
  // Fully degenerate instance (every pivot ratio 0) under Devex pricing:
  // the Bland fallback must still engage and terminate.
  LpProblem p;
  const int n = 60;
  p.AddVariables(n);
  for (int i = 0; i + 1 < n; ++i) {
    p.AddConstraint(MakeConstraint({i, i + 1}, 0));
  }
  auto sol = SolveFeasibility(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  for (double v : sol->values) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(SimplexDevexTest, HeavyDuplicationStaysFeasible) {
  LpProblem p;
  p.AddVariables(8);
  for (int rep = 0; rep < 16; ++rep) {
    p.AddConstraint(MakeConstraint({0, 1, 2}, 30));
    p.AddConstraint(MakeConstraint({2, 3, 4}, 50));
    p.AddConstraint(MakeConstraint({4, 5, 6}, 20));
  }
  p.AddConstraint(MakeConstraint({0, 1, 2, 3, 4, 5, 6, 7}, 120));
  auto sol = SolveFeasibility(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(p.MaxViolation(sol->values), 1e-6);
}

// ---- LU refactorization recovery -----------------------------------------

TEST(SimplexLuTest, TinyPivotsSurviveForrestTomlinRejection) {
  // Mix huge and tiny coefficients so some column replacements produce
  // near-singular diagonals: Forrest-Tomlin updates get refused and the
  // solver must recover through refactorization.
  Rng rng(7);
  LpProblem p;
  const int n = 80;
  const int m = 30;
  p.AddVariables(n);
  std::vector<int64_t> witness(n);
  for (int j = 0; j < n; ++j) witness[j] = rng.NextInt(0, 100);
  for (int i = 0; i < m; ++i) {
    LpConstraint c;
    double rhs = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.3)) {
        const double coeff = rng.NextBool(0.2) ? 1e-7 : 1.0;
        c.AddTerm(j, coeff);
        rhs += coeff * witness[j];
      }
    }
    c.rhs = rhs;
    p.AddConstraint(std::move(c));
  }
  SimplexOptions options;
  options.refactor_interval = 5;
  auto sol = SolveFeasibility(p, options);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(p.MaxViolation(sol->values), 1e-4);
}

// ---- end-to-end: hydra pipeline determinism -------------------------------

TEST(HydraWarmStartTest, SummariesIdenticalWarmVsCold) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraOptions warm;
  warm.warm_start = true;
  HydraOptions cold = warm;
  cold.warm_start = false;
  auto a = HydraRegenerator(env.schema, warm).Regenerate(env.ccs);
  auto b = HydraRegenerator(env.schema, cold).Regenerate(env.ccs);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(SummaryBytes(a->summary, "warm"), SummaryBytes(b->summary, "cold"));
}

}  // namespace
}  // namespace hydra
