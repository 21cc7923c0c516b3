// HydraRegenerator — the end-to-end public API (Figure 2's vendor site).
//
// Input: a schema (with metadata row counts) and the cardinality constraints
// extracted from the client's annotated query plans. Output: the database
// summary plus per-view diagnostics. The summary can then be materialized
// (MaterializeDatabase / MaterializeToDisk) or served dynamically through
// TupleGenerator during query execution.
//
// Typical use:
//   HydraRegenerator hydra(schema);
//   auto result = hydra.Regenerate(ccs);
//   TupleGenerator gen(result->summary);          // dynamic generation
//   auto db = MaterializeDatabase(result->summary);  // or static

#ifndef HYDRA_HYDRA_REGENERATOR_H_
#define HYDRA_HYDRA_REGENERATOR_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "hydra/summary.h"
#include "hydra/tuple_generator.h"
#include "lp/simplex.h"
#include "query/constraint.h"

namespace hydra {

struct HydraOptions {
  // Options of every view's LP solve (lp/simplex.h). With warm_start on,
  // the chains below set each view's basis import and export.
  SimplexOptions simplex;
  // Seed each view's phase I from the final basis of the previous view
  // with the same LP signature (rows, variables, nonzeros) — consecutive
  // views share most constraint structure, so the imported basis usually
  // survives validation and skips most of phase I. Views with distinct
  // signatures solve cold, and an incompatible basis falls back to the
  // cold start inside the solver. Summaries are byte-identical at any
  // num_threads either way (chains are static and solved in view order).
  // On the toy and TPC-DS sites tests/regenerator_parallel_test.cc runs,
  // they are also byte-identical with warm starts on and off; only the
  // views' pivot counts differ.
  bool warm_start = true;
  // Extra repair passes for LP integerization.
  int integerize_passes = 8;
  // Worker threads for the per-view formulate/solve/integerize stage.
  // 0 = one per hardware thread (capped at the view count); 1 = sequential.
  // The produced summary is byte-identical regardless of the setting — each
  // view writes its own slot and reduction happens in view order.
  int num_threads = 0;
  // Options for materializing the produced summary (MaterializeDatabase /
  // MaterializeToDisk), carried here so one struct configures the whole
  // regenerate→materialize pipeline.
  GenerationOptions generation;
};

// Diagnostics for one view's pipeline stage.
struct ViewReport {
  int relation = -1;
  int num_subviews = 0;
  uint64_t lp_variables = 0;
  uint64_t lp_constraints = 0;
  int lp_iterations = 0;
  // The solver accepted a warm-start basis from a previous view.
  bool warm_started = false;
  double formulate_seconds = 0;
  double solve_seconds = 0;
  // Residual integerization error (paper Section 7.1 error tail).
  int64_t max_abs_violation = 0;
  double max_rel_violation = 0;
};

struct RegenerationResult {
  DatabaseSummary summary;
  std::vector<ViewReport> views;
  double total_seconds = 0;

  uint64_t TotalLpVariables() const;
  uint64_t MaxLpVariables() const;
};

class HydraRegenerator {
 public:
  explicit HydraRegenerator(const Schema& schema, HydraOptions options = {})
      : schema_(schema), options_(options) {}

  StatusOr<RegenerationResult> Regenerate(
      const std::vector<CardinalityConstraint>& ccs) const;

  // Convenience wrappers that materialize a produced summary with
  // options().generation, so one HydraOptions really does configure the
  // whole regenerate→materialize pipeline.
  StatusOr<Database> Materialize(const DatabaseSummary& summary) const;
  StatusOr<uint64_t> MaterializeToDisk(const DatabaseSummary& summary,
                                       const std::string& dir) const;

  const HydraOptions& options() const { return options_; }

 private:
  const Schema& schema_;
  HydraOptions options_;
};

}  // namespace hydra

#endif  // HYDRA_HYDRA_REGENERATOR_H_
