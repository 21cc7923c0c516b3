#include "hydra/regenerator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "hydra/summary_generator.h"
#include "lp/integerize.h"

namespace hydra {

// Per-view LP phase latency. Recorded off the ViewReport's own timings
// (no extra clock reads on the regeneration path).
HYDRA_METRIC_HISTOGRAM(g_formulate_us, "lp/formulate_us");
HYDRA_METRIC_HISTOGRAM(g_solve_us, "lp/solve_us");

namespace {

double SecondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// A per-view failure, prefixed with the view's relation name so the caller
// can tell which view's constraints are at fault; the code is kept.
Status ViewError(const Schema& schema, const View& view, const Status& error) {
  const std::string& name = schema.relation(view.relation).name();
  return Status(error.code(), "view " + name + ": " + error.message());
}

// Regeneration carries row counts as int64 (PK domains, relation totals,
// summary prefix sums), so a relation or CC past INT64_MAX rows is refused
// before any view is built, naming the first one, instead of wrapping.
Status CheckCountsInRange(const Schema& schema,
                          const std::vector<CardinalityConstraint>& ccs) {
  constexpr uint64_t kMaxCount = INT64_MAX;
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    if (rel.row_count() > kMaxCount) {
      return Status::OutOfRange("relation " + rel.name() + " has " +
                                std::to_string(rel.row_count()) +
                                " rows, past INT64_MAX");
    }
  }
  for (const CardinalityConstraint& cc : ccs) {
    if (cc.cardinality > kMaxCount) {
      return Status::OutOfRange("CC " + cc.label + " has cardinality " +
                                std::to_string(cc.cardinality) +
                                ", past INT64_MAX");
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t RegenerationResult::TotalLpVariables() const {
  uint64_t total = 0;
  for (const ViewReport& v : views) total += v.lp_variables;
  return total;
}

uint64_t RegenerationResult::MaxLpVariables() const {
  uint64_t best = 0;
  for (const ViewReport& v : views) best = std::max(best, v.lp_variables);
  return best;
}

StatusOr<RegenerationResult> HydraRegenerator::Regenerate(
    const std::vector<CardinalityConstraint>& ccs) const {
  const auto t0 = std::chrono::steady_clock::now();
  RegenerationResult result;
  HYDRA_RETURN_IF_ERROR(CheckCountsInRange(schema_, ccs));

  Preprocessor pre(schema_);
  HYDRA_ASSIGN_OR_RETURN(std::vector<View> views, pre.BuildViews());
  HYDRA_ASSIGN_OR_RETURN(auto view_constraints,
                         pre.MapConstraints(views, ccs));

  SummaryGenerator generator(schema_);
  const int num_views = static_cast<int>(views.size());
  std::vector<ViewSummary> summaries(num_views);
  std::vector<ViewReport> reports(num_views);
  std::vector<Status> statuses(num_views, Status::OK());
  std::vector<ViewLp> lps(num_views);

  const int pool_threads = std::min(
      num_views == 0 ? 1 : num_views,
      options_.num_threads > 0 ? options_.num_threads
                               : ThreadPool::DefaultThreads());
  // Once any view fails, tasks that have not started yet bail immediately —
  // the whole Regenerate returns an error either way, so finishing the
  // remaining solves is wasted work. Which failing view's status is reported
  // can then depend on scheduling (the lowest-indexed view that actually
  // ran and failed); the success path is unaffected and stays deterministic.
  std::atomic<bool> any_failed{false};
  ThreadPool pool(pool_threads);

  // Stage 1 — formulate every view, one task per view. Each task writes
  // only its own slot, so the stage is deterministic at any thread count.
  ParallelFor(pool, num_views, [&](int v) {
    if (any_failed.load(std::memory_order_relaxed)) return;
    ViewReport& report = reports[v];
    report.relation = views[v].relation;

    const auto tf = std::chrono::steady_clock::now();
    auto lp_or = FormulateViewLp(views[v], std::move(view_constraints[v]));
    if (!lp_or.ok()) {
      statuses[v] = ViewError(schema_, views[v], lp_or.status());
      any_failed.store(true, std::memory_order_relaxed);
      return;
    }
    lps[v] = *std::move(lp_or);
    report.formulate_seconds = SecondsSince(tf);
    g_formulate_us.Record(
        static_cast<uint64_t>(report.formulate_seconds * 1e6));
    report.num_subviews = static_cast<int>(lps[v].subviews.size());
    report.lp_variables = lps[v].problem.num_vars();
    report.lp_constraints = lps[v].problem.num_constraints();
  });
  for (const Status& s : statuses) HYDRA_RETURN_IF_ERROR(s);

  // Stage 2 — group views into warm-start chains by LP signature (the
  // constraint-overlap heuristic: identical row/variable/nonzero counts
  // mean the views were formulated from near-identical constraint
  // structure). Each chain solves sequentially in view order, seeding
  // every phase I from the previous member's exported basis; distinct
  // chains run in parallel. Chain membership is a pure function of the
  // formulated LPs, and each view writes only its own slot, so the output
  // is byte-identical at any num_threads. With warm starts disabled every
  // view is its own chain (the PR 1 behaviour).
  std::vector<std::vector<int>> chains;
  if (options_.warm_start) {
    std::map<std::tuple<int, int, uint64_t>, int> chain_of;
    for (int v = 0; v < num_views; ++v) {
      const auto key = std::make_tuple(lps[v].problem.num_constraints(),
                                       lps[v].problem.num_vars(),
                                       lps[v].problem.NumNonZeros());
      const auto [it, inserted] =
          chain_of.emplace(key, static_cast<int>(chains.size()));
      if (inserted) chains.emplace_back();
      chains[it->second].push_back(v);
    }
  } else {
    chains.resize(num_views);
    for (int v = 0; v < num_views; ++v) chains[v] = {v};
  }

  ParallelFor(pool, static_cast<int>(chains.size()), [&](int c) {
    SimplexBasis prev;
    for (int v : chains[c]) {
      if (any_failed.load(std::memory_order_relaxed)) return;
      ViewReport& report = reports[v];
      ViewLp& lp = lps[v];

      const auto ts = std::chrono::steady_clock::now();
      SimplexOptions simplex = options_.simplex;
      SimplexBasis exported;
      if (options_.warm_start) {
        simplex.warm_start = prev.empty() ? nullptr : &prev;
        simplex.export_basis = &exported;
      }
      auto lp_solution = SolveFeasibility(lp.problem, simplex);
      if (!lp_solution.ok()) {
        statuses[v] = ViewError(schema_, views[v], lp_solution.status());
        any_failed.store(true, std::memory_order_relaxed);
        return;
      }
      report.lp_iterations = lp_solution->iterations;
      report.warm_started = lp_solution->warm_started;
      IntegerizeResult integers = IntegerizeSolution(
          lp.problem, lp_solution->values, options_.integerize_passes);
      report.solve_seconds = SecondsSince(ts);
      g_solve_us.Record(static_cast<uint64_t>(report.solve_seconds * 1e6));
      report.max_abs_violation = integers.max_absolute_violation;
      report.max_rel_violation = integers.max_relative_violation;

      auto summary_or =
          generator.BuildViewSummary(views[v], lp, integers.values);
      if (!summary_or.ok()) {
        statuses[v] = ViewError(schema_, views[v], summary_or.status());
        any_failed.store(true, std::memory_order_relaxed);
        return;
      }
      summaries[v] = *std::move(summary_or);
      prev = std::move(exported);
    }
  });

  // First recorded failure in view order wins.
  for (const Status& s : statuses) HYDRA_RETURN_IF_ERROR(s);
  result.views = std::move(reports);

  HYDRA_ASSIGN_OR_RETURN(
      result.summary,
      generator.BuildDatabaseSummary(views, std::move(summaries)));
  result.total_seconds = SecondsSince(t0);
  return result;
}

StatusOr<Database> HydraRegenerator::Materialize(
    const DatabaseSummary& summary) const {
  return MaterializeDatabase(summary, options_.generation);
}

StatusOr<uint64_t> HydraRegenerator::MaterializeToDisk(
    const DatabaseSummary& summary, const std::string& dir) const {
  return hydra::MaterializeToDisk(summary, dir, options_.generation);
}

}  // namespace hydra
