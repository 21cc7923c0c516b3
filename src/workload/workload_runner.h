// Client-site construction and vendor-side volumetric-similarity measurement.
//
// BuildClientSite plays the client of Figure 2: generate (or accept) the
// client database, execute the workload to obtain AQPs, and parse them into
// cardinality constraints (plus one |R| size CC per relation from metadata).
// MeasureVolumetricSimilarity plays the evaluator of Section 7.1: re-run the
// same plans against a vendor-side table source and report the per-CC signed
// relative error.

#ifndef HYDRA_WORKLOAD_WORKLOAD_RUNNER_H_
#define HYDRA_WORKLOAD_WORKLOAD_RUNNER_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/table.h"
#include "query/constraint.h"
#include "query/query.h"
#include "workload/datagen.h"

namespace hydra {

struct ClientSite {
  Schema schema;  // row counts matched to the generated data
  Database database;
  std::vector<Query> queries;
  std::vector<AnnotatedQueryPlan> aqps;
  // Per-relation size CCs followed by the AQP-derived CCs.
  std::vector<CardinalityConstraint> ccs;
};

// The client database generates one relation per task; the queries run
// as one Executor::ExecuteAll batch on `exec`'s workers. The site (tables,
// AQPs, CCs and their ordering) is identical at any num_threads.
StatusOr<ClientSite> BuildClientSite(const Schema& schema,
                                     const DataGenOptions& datagen_options,
                                     std::vector<Query> queries,
                                     const ExecOptions& exec = {});

struct SimilarityEntry {
  std::string label;
  uint64_t client_cardinality = 0;
  uint64_t vendor_cardinality = 0;
  // (vendor - client) / max(1, client); negative = vendor produced fewer
  // rows than required.
  double signed_relative_error = 0;
};

struct SimilarityReport {
  std::vector<SimilarityEntry> entries;

  // Fraction of CCs with |error| <= threshold.
  double FractionWithin(double threshold) const;
  double MaxAbsError() const;
  int CountNegative() const;
};

// Re-executes the client's queries against `vendor` (a materialized database
// or a Hydra TupleGenerator) and compares every annotated edge, plus the
// per-relation size CCs. The queries re-run as one Executor::ExecuteAll
// batch on `exec`'s workers; the report is identical at any num_threads.
// kInvalidArgument when the client holds a different number of AQPs than
// queries.
StatusOr<SimilarityReport> MeasureVolumetricSimilarity(
    const ClientSite& client, const TableSource& vendor,
    const ExecOptions& exec = {});

}  // namespace hydra

#endif  // HYDRA_WORKLOAD_WORKLOAD_RUNNER_H_
