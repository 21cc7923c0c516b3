// Query executor producing Annotated Query Plans (AQPs), plus the parser that
// converts AQPs to cardinality constraints (Sections 2.1, 2.2, 3.1).
//
// Execution is left-deep in the query's join order with filters pushed down,
// mirroring the plans of Figure 1c: every filtered base relation and every
// join output edge carries a row-cardinality annotation.

#ifndef HYDRA_ENGINE_EXECUTOR_H_
#define HYDRA_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/operators.h"
#include "engine/table.h"
#include "query/constraint.h"
#include "query/query.h"

namespace hydra {

// One annotated edge of the plan: the (partial) join expression evaluated so
// far, its accumulated filter predicate, and the observed output cardinality.
// This carries exactly the information the client-side Parser needs to emit a
// cardinality constraint.
struct AqpStep {
  std::string label;
  std::vector<int> relations;    // schema relation indices, join root first
  std::vector<CcJoin> joins;     // PK-FK edges applied so far
  std::vector<AttrRef> columns;  // predicate column space
  DnfPredicate predicate;        // accumulated filters over `columns`
  uint64_t cardinality = 0;
};

struct AnnotatedQueryPlan {
  std::string query_name;
  std::vector<AqpStep> steps;
};

class Executor {
 public:
  // The executor owns one ExecContext (thread pool + morsel knobs) reused
  // across every Execute and ExecuteAll call. Non-root relations are
  // scanned and filtered morsel by morsel on the query's own thread
  // (ScanFiltered) and indexed on their join keys; the joins then run as a
  // probe chain inside the root relation's morsels, which the context's
  // workers claim (docs/engine.md "The executor's probe chain"). Results
  // are byte-identical at any num_threads.
  explicit Executor(const Schema& schema, ExecOptions options = {})
      : schema_(schema), owned_ctx_(std::make_unique<ExecContext>(options)) {}

  // Runs on a caller-owned context instead (e.g. a serving-layer scheduler
  // slot over a shared pool — docs/serve.md). `ctx` must outlive the
  // executor; results are identical to the owning mode.
  Executor(const Schema& schema, ExecContext* ctx)
      : schema_(schema), external_ctx_(ctx) {}

  // Executes `query` against `source` and returns the annotated plan.
  // Requires the query's relations to be distinct (no self-joins).
  StatusOr<AnnotatedQueryPlan> Execute(const Query& query,
                                       const TableSource& source) const;

  // Executes a batch of queries against `source`: the context's workers
  // claim whole queries, each running its morsels sequentially on the
  // claiming worker (docs/engine.md "Query batches"). A batch of one
  // query, or a sequential context, runs its queries in turn through
  // Execute's dispatch. Returns the plans in query order, each identical
  // to a lone Execute of its query. Every query is checked before any
  // runs, so an invalid batch fails with the first invalid query's status
  // in query order; a tripped cancel scope fails it with the scope's
  // status. Must not be called from a task of the context's own pool.
  StatusOr<std::vector<AnnotatedQueryPlan>> ExecuteAll(
      const std::vector<Query>& queries, const TableSource& source) const;

  const ExecOptions& options() const { return ctx()->options(); }

 private:
  ExecContext* ctx() const {
    return external_ctx_ != nullptr ? external_ctx_ : owned_ctx_.get();
  }

  // OK, or why `query` cannot run: invalid for the schema, or a self-join.
  Status Check(const Query& query) const;
  // Runs a checked query on `ctx`; fails only when its cancel scope trips.
  StatusOr<AnnotatedQueryPlan> Run(const Query& query,
                                   const TableSource& source,
                                   ExecContext* ctx) const;

  const Schema& schema_;
  std::unique_ptr<ExecContext> owned_ctx_;
  ExecContext* external_ctx_ = nullptr;  // non-owning
};

// The client-site Parser: converts an AQP into cardinality constraints
// (Figure 1d). Each annotated edge becomes one CC.
std::vector<CardinalityConstraint> AqpToConstraints(
    const AnnotatedQueryPlan& aqp);

// The |R| = count base-size constraint for a relation.
CardinalityConstraint RelationSizeConstraint(int relation, uint64_t count,
                                             const std::string& label);

}  // namespace hydra

#endif  // HYDRA_ENGINE_EXECUTOR_H_
