// Unit tests for hydra/formulator: LP structure, solvability, consistency.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "hydra/regenerator.h"
#include "hydra/summary_generator.h"
#include "hydra/summary_io.h"
#include "lp/integerize.h"
#include "lp/simplex.h"
#include "workload/toy.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

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

// `n` points drawn uniformly from [0, width)^columns.
std::vector<Row> RandomRows(int columns, int64_t width, int n, Rng& rng) {
  std::vector<Row> rows(n, Row(columns));
  for (Row& row : rows) {
    for (Value& v : row) v = rng.NextInt(0, width);
  }
  return rows;
}

// A random box over `columns`, each side at least 5 wide.
DnfPredicate RandomBox(const std::vector<int>& columns, int64_t width,
                       Rng& rng) {
  std::vector<Atom> atoms;
  for (int c : columns) {
    const int64_t lo = rng.NextInt(0, width - 5);
    atoms.push_back(AtomRange(c, lo, rng.NextInt(lo + 5, width + 1)));
  }
  return PredicateAllOf(std::move(atoms));
}

// CCs counted on `rows`, so the LP has an integral solution.
std::vector<ViewConstraint> CountedCcs(const std::vector<Row>& rows,
                                       std::vector<DnfPredicate> predicates) {
  std::vector<ViewConstraint> vcs;
  for (DnfPredicate& p : predicates) {
    uint64_t k = 0;
    for (const Row& row : rows) k += p.Eval(row) ? 1 : 0;
    vcs.push_back(Vc(std::move(p), k, "cc" + std::to_string(vcs.size())));
  }
  return vcs;
}

// Formulates, solves and integerizes the view's LP, builds its view summary
// and counts every CC on the summary's rows: each count must be exact.
void ExpectExactViewSummary(const View& v,
                            const std::vector<ViewConstraint>& vcs) {
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok()) << lp.status().ToString();
  auto sol = SolveFeasibility(lp->problem);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  const IntegerizeResult ints = IntegerizeSolution(lp->problem, sol->values);
  ASSERT_EQ(ints.max_absolute_violation, 0);
  const Schema schema;
  auto summary = SummaryGenerator(schema).BuildViewSummary(v, *lp, ints.values);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->TotalCount(), static_cast<int64_t>(v.total_rows));
  for (const ViewConstraint& vc : vcs) {
    int64_t count = 0;
    for (const SolutionRow& row : summary->rows) {
      if (vc.predicate.Eval(row.values)) count += row.count;
    }
    EXPECT_EQ(count, static_cast<int64_t>(vc.cardinality)) << vc.label;
  }
}

// The class of variable `v` of sub-view `s` on each edge at `s`: the edge
// to its parent first, then those to its children in sub-view order.
std::vector<int> VariableClasses(const ViewLp& lp, int s, int v) {
  std::vector<int> classes;
  if (lp.subviews[s].parent_edge.classes.num_regions() > 0) {
    classes.push_back(lp.subviews[s].parent_edge.child_class[v]);
  }
  for (size_t c = 0; c < lp.subviews.size(); ++c) {
    const SubViewLp& child = lp.subviews[c];
    if (child.subview.parent == s &&
        child.parent_edge.classes.num_regions() > 0) {
      classes.push_back(child.parent_edge.parent_class[v]);
    }
  }
  return classes;
}

// The class of `point` (sub-view `s`'s local dims) on the same edges.
std::vector<int> PointClasses(const ViewLp& lp, int s, const Row& point) {
  const SubView& sv = lp.subviews[s].subview;
  const auto class_of = [&](const SubViewLp& edge_child) {
    Row projected;
    for (int col : edge_child.subview.separator) {
      const auto pos = std::find(sv.columns.begin(), sv.columns.end(), col);
      projected.push_back(point[pos - sv.columns.begin()]);
    }
    return edge_child.parent_edge.classes.RegionOf(projected);
  };
  std::vector<int> classes;
  if (lp.subviews[s].parent_edge.classes.num_regions() > 0) {
    classes.push_back(class_of(lp.subviews[s]));
  }
  for (const SubViewLp& child : lp.subviews) {
    if (child.subview.parent == s &&
        child.parent_edge.classes.num_regions() > 0) {
      classes.push_back(class_of(child));
    }
  }
  return classes;
}

bool BoxesMeet(const Block& a, const std::vector<IntervalSet>& b) {
  for (size_t d = 0; d < a.dims.size(); ++d) {
    if (a.dims[d].Intersect(b[d]).empty()) return false;
  }
  return true;
}

bool BoxInside(const Block& a, const std::vector<IntervalSet>& b) {
  for (size_t d = 0; d < a.dims.size(); ++d) {
    if (!a.dims[d].Difference(b[d]).empty()) return false;
  }
  return true;
}

// The per-edge class invariants formulator.h states:
// (1) every edge's classes are disjoint, and every child and parent block
//     projection onto the separator is a union of them;
// (2) the variables of a sub-view are exactly the non-empty combinations of
//     a region and one class per incident edge: sampled points and every
//     variable's smallest point land in exactly the variable of their
//     region and classes.
void ExpectClassInvariants(const ViewLp& lp, Rng& rng) {
  for (size_t c = 0; c < lp.subviews.size(); ++c) {
    const SubViewLp& child = lp.subviews[c];
    const RegionPartition& classes = child.parent_edge.classes;
    if (classes.num_regions() == 0) continue;
    for (int k = 0; k < classes.num_regions(); ++k) {
      for (int k2 = k + 1; k2 < classes.num_regions(); ++k2) {
        for (const Block& a : classes.regions[k].blocks) {
          for (const Block& b : classes.regions[k2].blocks) {
            EXPECT_FALSE(BoxesMeet(a, b.dims)) << "classes " << k << ", " << k2;
          }
        }
      }
    }
    for (const SubViewLp* side :
         {&child, &lp.subviews[child.subview.parent]}) {
      const std::vector<int>& cols = side->subview.columns;
      std::vector<int> dims;
      for (int col : child.subview.separator) {
        const auto pos = std::find(cols.begin(), cols.end(), col);
        dims.push_back(static_cast<int>(pos - cols.begin()));
      }
      for (const Region& region : side->partition.regions) {
        for (const Block& block : region.blocks) {
          std::vector<IntervalSet> projection;
          for (int d : dims) projection.push_back(block.dims[d]);
          for (const Region& cls : classes.regions) {
            int inside = 0, outside = 0;
            for (const Block& b : cls.blocks) {
              if (BoxInside(b, projection)) {
                ++inside;
              } else if (!BoxesMeet(b, projection)) {
                ++outside;
              }
            }
            EXPECT_TRUE(inside == static_cast<int>(cls.blocks.size()) ||
                        outside == static_cast<int>(cls.blocks.size()))
                << "a block projection cuts a class";
          }
        }
      }
    }
  }
  for (size_t s = 0; s < lp.subviews.size(); ++s) {
    const SubViewLp& sv = lp.subviews[s];
    const auto variable_of = [&](const Row& point) {
      const int region = sv.partition.RegionOf(point);
      const std::vector<int> classes =
          PointClasses(lp, static_cast<int>(s), point);
      int found = -1, matches = 0;
      for (int v = 0; v < sv.num_vars(); ++v) {
        if (sv.variables[v].region == region &&
            VariableClasses(lp, static_cast<int>(s), v) == classes) {
          found = v;
          ++matches;
        }
      }
      EXPECT_LE(matches, 1);
      return found;
    };
    for (int v = 0; v < sv.num_vars(); ++v) {
      EXPECT_EQ(variable_of(sv.variables[v].min_point), v);
    }
    for (int i = 0; i < 300; ++i) {
      Row point;
      for (const Interval& d : sv.partition.domains) {
        point.push_back(rng.NextInt(d.lo, d.hi));
      }
      EXPECT_GE(variable_of(point), 0);
    }
  }
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
  // Totals (2) + CCs (2) + one consistency row per class of the edge.
  const int classes = lp->subviews[1].parent_edge.classes.num_regions();
  EXPECT_GT(classes, 1);
  EXPECT_EQ(lp->problem.num_constraints(), 4 + classes);

  auto sol = SolveFeasibility(lp->problem);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(lp->problem.MaxViolation(sol->values), 1e-6);

  // Solved integer counts per region: both sub-views total 1000 and CCs hold.
  const auto ints = IntegerizeSolution(lp->problem, sol->values);
  EXPECT_EQ(ints.max_absolute_violation, 0);
  for (const SubViewLp& sv : lp->subviews) {
    int64_t total = 0;
    for (int v = 0; v < sv.num_vars(); ++v) {
      total += ints.values[sv.first_var + v];
    }
    EXPECT_EQ(total, 1000);
  }
}

TEST(FormulatorTest, VariablesFollowEdgeClasses) {
  View v = SimpleView(3, 100, 1000);
  std::vector<ViewConstraint> vcs = {
      Vc(PredicateAllOf({AtomRange(0, 10, 50), AtomRange(1, 20, 60)}), 300,
         "ab"),
      Vc(PredicateAllOf({AtomRange(1, 30, 80), AtomRange(2, 5, 95)}), 400,
         "bc"),
  };
  auto lp = FormulateViewLp(v, vcs);
  ASSERT_TRUE(lp.ok());
  Rng rng(11);
  ExpectClassInvariants(*lp, rng);
}

// Three cliques in a chain, {0,1,2} - {1,2,3} - {2,3,4}: column 2 lies in
// both separators of the middle sub-view (a continuation column), and the
// CCs cut it at different values on each edge. The merge hands the root's
// column-2 value down to the last sub-view.
TEST(FormulatorTest, ContinuationColumnChainSummaryIsExact) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    View v = SimpleView(5, 100, 600);
    const std::vector<Row> rows = RandomRows(5, 100, 600, rng);
    std::vector<DnfPredicate> predicates;
    for (const std::vector<int>& clique :
         {std::vector<int>{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}) {
      for (int i = 0; i < 3; ++i) {
        predicates.push_back(RandomBox(clique, 100, rng));
      }
    }
    const std::vector<ViewConstraint> vcs =
        CountedCcs(rows, std::move(predicates));
    auto lp = FormulateViewLp(v, vcs);
    ASSERT_TRUE(lp.ok()) << lp.status().ToString();
    ASSERT_EQ(lp->subviews.size(), 3u);
    ASSERT_EQ(lp->subviews[1].subview.separator, (std::vector<int>{1, 2}));
    ASSERT_EQ(lp->subviews[2].subview.separator, (std::vector<int>{2, 3}));
    ExpectClassInvariants(*lp, rng);
    ExpectExactViewSummary(v, vcs);
  }
}

// catalog_sales' shape: a sub-view whose two children share its separator
// columns {0,1}, with different CC boundaries on each edge.
TEST(FormulatorTest, SiblingSeparatorsSummaryIsExact) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    View v = SimpleView(5, 100, 600);
    const std::vector<Row> rows = RandomRows(5, 100, 600, rng);
    std::vector<DnfPredicate> predicates;
    for (const std::vector<int>& clique :
         {std::vector<int>{0, 1, 2}, {0, 1, 3}, {0, 1, 4}}) {
      for (int i = 0; i < 3; ++i) {
        predicates.push_back(RandomBox(clique, 100, rng));
      }
    }
    const std::vector<ViewConstraint> vcs =
        CountedCcs(rows, std::move(predicates));
    auto lp = FormulateViewLp(v, vcs);
    ASSERT_TRUE(lp.ok()) << lp.status().ToString();
    ASSERT_EQ(lp->subviews.size(), 3u);
    ASSERT_EQ(lp->subviews[1].subview.parent, 0);
    ASSERT_EQ(lp->subviews[2].subview.parent, 0);
    ASSERT_EQ(lp->subviews[1].subview.separator, (std::vector<int>{0, 1}));
    ASSERT_EQ(lp->subviews[2].subview.separator, (std::vector<int>{0, 1}));
    ExpectClassInvariants(*lp, rng);
    ExpectExactViewSummary(v, vcs);
  }
}

TEST(FormulatorTest, UnkeyableClassCombinationsReportResourceExhausted) {
  // A sub-view over columns 0..15 with 16 children {i, 16+i}, each edge
  // cutting its separator column i into more than 16 classes: their
  // combinations exceed 2^62 and cannot be packed into a key. The check
  // runs before any combination is enumerated.
  View v = SimpleView(32, 100, 1000);
  std::vector<Atom> wide;
  for (int i = 0; i < 16; ++i) wide.push_back(AtomRange(i, 0, 50));
  std::vector<ViewConstraint> vcs = {Vc(PredicateAllOf(wide), 10, "wide")};
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 20; ++j) {
      vcs.push_back(Vc(PredicateAllOf({AtomRange(i, 5 * j, 5 * j + 3),
                                       AtomRange(16 + i, 0, 50)}),
                       1, "c" + std::to_string(i) + "_" + std::to_string(j)));
    }
  }
  auto lp = FormulateViewLp(v, vcs);
  EXPECT_EQ(lp.status().code(), StatusCode::kResourceExhausted)
      << lp.status().ToString();
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
  for (int v = 0; v < sv.num_vars(); ++v) {
    if (sv.partition.regions[sv.variables[v].region].SatisfiesConstraint(0)) {
      satisfied += ints.values[sv.first_var + v];
    }
  }
  EXPECT_EQ(satisfied, 250);
}

// FNV-1a over the bytes of every value fed to it.
class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof v); }
  void Double(double v) { Bytes(&v, sizeof v); }
  void Text(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void HashPartition(const RegionPartition& p, Fnv* f) {
  f->Int(static_cast<int64_t>(p.domains.size()));
  for (const Interval& d : p.domains) {
    f->Int(d.lo);
    f->Int(d.hi);
  }
  f->Int(p.num_regions());
  for (const Region& region : p.regions) {
    f->Int(static_cast<int64_t>(region.label.size()));
    for (int ci : region.label) f->Int(ci);
    f->Int(static_cast<int64_t>(region.blocks.size()));
    for (const Block& b : region.blocks) {
      for (const IntervalSet& s : b.dims) {
        f->Int(static_cast<int64_t>(s.intervals().size()));
        for (const Interval& iv : s.intervals()) {
          f->Int(iv.lo);
          f->Int(iv.hi);
        }
      }
    }
  }
}

// Hashes of everything a TPC-DS site's regeneration formulates and ships.
struct FormulationPins {
  uint64_t lps = 0;       // every view LP: rows' labels, rhs, vars, coeffs
  uint64_t subviews = 0;  // regions, variables and edge classes
  uint64_t summary = 0;   // WriteSummary's bytes
  uint64_t pivots = 0;    // phase-I pivots per view
};

FormulationPins PinSite(TpcdsWorkloadKind kind, int num_queries,
                        uint64_t query_seed) {
  FormulationPins pins;
  const Schema schema = TpcdsSchema(4);
  auto site = BuildClientSite(
      schema, DataGenOptions{.seed = 3},
      TpcdsWorkload(schema, kind, num_queries, query_seed));
  EXPECT_TRUE(site.ok()) << site.status().ToString();
  if (!site.ok()) return pins;

  Preprocessor pre(site->schema);
  auto views = pre.BuildViews();
  EXPECT_TRUE(views.ok()) << views.status().ToString();
  if (!views.ok()) return pins;
  auto mapped = pre.MapConstraints(*views, site->ccs);
  EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
  if (!mapped.ok()) return pins;
  Fnv lps, subviews;
  for (size_t v = 0; v < views->size(); ++v) {
    auto lp = FormulateViewLp((*views)[v], (*mapped)[v]);
    EXPECT_TRUE(lp.ok()) << lp.status().ToString();
    if (!lp.ok()) return pins;
    lps.Int(lp->problem.num_vars());
    for (const LpConstraint& c : lp->problem.constraints()) {
      lps.Text(c.label);
      lps.Double(c.rhs);
      lps.Int(static_cast<int64_t>(c.vars.size()));
      for (size_t i = 0; i < c.vars.size(); ++i) {
        lps.Int(c.vars[i]);
        lps.Double(c.coeffs[i]);
      }
    }
    for (const SubViewLp& sv : lp->subviews) {
      HashPartition(sv.partition, &subviews);
      subviews.Int(sv.first_var);
      for (const RegionPiece& piece : sv.variables) {
        subviews.Int(piece.region);
        for (Value x : piece.min_point) subviews.Int(x);
      }
      HashPartition(sv.parent_edge.classes, &subviews);
      for (int k : sv.parent_edge.child_class) subviews.Int(k);
      for (int k : sv.parent_edge.parent_class) subviews.Int(k);
    }
  }
  pins.lps = lps.value();
  pins.subviews = subviews.value();

  auto result = HydraRegenerator(site->schema).Regenerate(site->ccs);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return pins;
  Fnv pivots;
  for (const ViewReport& report : result->views) {
    pivots.Int(report.lp_iterations);
  }
  pins.pivots = pivots.value();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hydra_formulator_pin_" + std::to_string(::getpid()) + ".bin"))
          .string();
  auto written = WriteSummary(result->summary, path);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  Fnv summary;
  summary.Bytes(bytes.data(), bytes.size());
  pins.summary = summary.value();
  return pins;
}

// The formulation of two TPC-DS sites (sf 4, client seed 3), pinned bit for
// bit: a change to Algorithms 1-2 or to FormulateViewLp that reorders a
// region, a block, a variable or an LP term moves these hashes. Re-record
// them only for a change meant to alter the LPs.
TEST(FormulatorPinTest, WlcSiteFormulationIsPinned) {
  const FormulationPins pins =
      PinSite(TpcdsWorkloadKind::kComplex, 200, 424242);
  EXPECT_EQ(pins.lps, 2956621434825151470u);
  EXPECT_EQ(pins.subviews, 13305357494259340489u);
  EXPECT_EQ(pins.summary, 5664614842681426159u);
  EXPECT_EQ(pins.pivots, 1416896646674844255u);
}

TEST(FormulatorPinTest, WlsSiteFormulationIsPinned) {
  const FormulationPins pins = PinSite(TpcdsWorkloadKind::kSimple, 80, 515151);
  EXPECT_EQ(pins.lps, 17053640631984739189u);
  EXPECT_EQ(pins.subviews, 4585474242971945159u);
  EXPECT_EQ(pins.summary, 9599163666319749007u);
  EXPECT_EQ(pins.pivots, 2929734719507674429u);
}

}  // namespace
}  // namespace hydra
