#include "workload/workload_runner.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hydra {

StatusOr<ClientSite> BuildClientSite(const Schema& schema,
                                     const DataGenOptions& datagen_options,
                                     std::vector<Query> queries,
                                     const ExecOptions& exec) {
  ClientSite site{schema, Database(schema), std::move(queries), {}, {}};
  HYDRA_ASSIGN_OR_RETURN(site.database,
                         GenerateClientDatabase(schema, datagen_options));

  // Size CCs from metadata (CODD's catalog transfer).
  for (int r = 0; r < schema.num_relations(); ++r) {
    site.ccs.push_back(RelationSizeConstraint(
        r, site.database.RowCount(r),
        "|" + schema.relation(r).name() + "|"));
  }

  const Executor executor(site.schema, exec);
  HYDRA_ASSIGN_OR_RETURN(site.aqps,
                         executor.ExecuteAll(site.queries, site.database));
  for (const AnnotatedQueryPlan& aqp : site.aqps) {
    std::vector<CardinalityConstraint> ccs = AqpToConstraints(aqp);
    site.ccs.insert(site.ccs.end(), ccs.begin(), ccs.end());
  }
  return site;
}

double SimilarityReport::FractionWithin(double threshold) const {
  if (entries.empty()) return 1.0;
  int within = 0;
  for (const SimilarityEntry& e : entries) {
    if (std::fabs(e.signed_relative_error) <= threshold) ++within;
  }
  return static_cast<double>(within) / entries.size();
}

double SimilarityReport::MaxAbsError() const {
  double worst = 0;
  for (const SimilarityEntry& e : entries) {
    worst = std::max(worst, std::fabs(e.signed_relative_error));
  }
  return worst;
}

int SimilarityReport::CountNegative() const {
  int n = 0;
  for (const SimilarityEntry& e : entries) {
    if (e.signed_relative_error < 0) ++n;
  }
  return n;
}

StatusOr<SimilarityReport> MeasureVolumetricSimilarity(
    const ClientSite& client, const TableSource& vendor,
    const ExecOptions& exec) {
  if (client.aqps.size() != client.queries.size()) {
    return Status::InvalidArgument(
        "client site has " + std::to_string(client.aqps.size()) +
        " AQPs for " + std::to_string(client.queries.size()) + " queries");
  }
  SimilarityReport report;

  auto add_entry = [&](const std::string& label, uint64_t want,
                       uint64_t got) {
    SimilarityEntry e;
    e.label = label;
    e.client_cardinality = want;
    e.vendor_cardinality = got;
    e.signed_relative_error =
        (static_cast<double>(got) - static_cast<double>(want)) /
        std::max<double>(1.0, static_cast<double>(want));
    report.entries.push_back(std::move(e));
  };

  for (int r = 0; r < client.schema.num_relations(); ++r) {
    add_entry("|" + client.schema.relation(r).name() + "|",
              client.database.RowCount(r), vendor.RowCount(r));
  }

  const Executor executor(client.schema, exec);
  HYDRA_ASSIGN_OR_RETURN(const std::vector<AnnotatedQueryPlan> vendor_aqps,
                         executor.ExecuteAll(client.queries, vendor));
  for (size_t qi = 0; qi < client.queries.size(); ++qi) {
    const AnnotatedQueryPlan& vendor_aqp = vendor_aqps[qi];
    const AnnotatedQueryPlan& client_aqp = client.aqps[qi];
    if (vendor_aqp.steps.size() != client_aqp.steps.size()) {
      return Status::Internal("plan shape mismatch for query " +
                              client.queries[qi].name);
    }
    for (size_t s = 0; s < vendor_aqp.steps.size(); ++s) {
      add_entry(client_aqp.steps[s].label, client_aqp.steps[s].cardinality,
                vendor_aqp.steps[s].cardinality);
    }
  }
  return report;
}

}  // namespace hydra
