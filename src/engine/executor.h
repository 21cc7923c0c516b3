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
#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
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
  // Every query runs on the thread that calls it: each non-root relation
  // is scanned and filtered morsel by morsel (ScanFiltered) and indexed on
  // its join key, then the joins run as a probe chain over the root
  // relation's morsels, one after another (docs/engine.md "The executor's
  // probe chain"). Scans whose PK the plan reads at most at run starts ask
  // for run heads, so over a generator each makes at most two fills. The
  // executor owns ExecuteAll's pool of options.ResolvedThreads() workers,
  // which run whole queries. Results are byte-identical at any
  // ExecOptions.
  explicit Executor(const Schema& schema, ExecOptions options = {});

  // Executes `query` against `source` on the calling thread and returns
  // the annotated plan. Requires the query's relations to be distinct (no
  // self-joins). A non-null `cancel` is checked before every fill, and a
  // tripped scope fails the query with its status before the next fill
  // runs.
  StatusOr<AnnotatedQueryPlan> Execute(
      const Query& query, const TableSource& source,
      const CancelScope* cancel = nullptr) const;

  // Executes a batch of queries against `source`: the pool's workers claim
  // whole queries, each running as Execute would (docs/engine.md "Query
  // batches"); a batch of one query, or a 1-thread executor, runs its
  // queries in turn on the calling thread. Returns the plans in query
  // order, each identical to a lone Execute of its query. Every query is
  // checked before any runs, so an invalid batch fails with the first
  // invalid query's status in query order; a tripped `cancel` fails it
  // with the scope's status.
  StatusOr<std::vector<AnnotatedQueryPlan>> ExecuteAll(
      const std::vector<Query>& queries, const TableSource& source,
      const CancelScope* cancel = nullptr) const;

  const ExecOptions& options() const { return options_; }

 private:
  // OK, or why `query` cannot run: invalid for the schema, or a self-join.
  Status Check(const Query& query) const;
  // Runs a checked query; fails only when `cancel` trips.
  StatusOr<AnnotatedQueryPlan> Run(const Query& query,
                                   const TableSource& source,
                                   const CancelScope* cancel) const;

  const Schema& schema_;
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // ExecuteAll's; null when sequential
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
