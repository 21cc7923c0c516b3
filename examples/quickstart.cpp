// Quickstart: the paper's Figure 1 scenario end to end.
//
// 1. Declare the client schema (R, S, T) and the cardinality constraints of
//    the example annotated query plan.
// 2. Run the Hydra regenerator to obtain a database summary.
// 3. Materialize a synthetic database from the summary and verify that
//    re-executing the query reproduces the plan's cardinalities.

#include <cstdio>
#include <vector>

#include "common/text_table.h"
#include "engine/executor.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "workload/toy.h"

int main() {
  using namespace hydra;

  // --- 1. Client inputs -------------------------------------------------
  ToyEnvironment env = MakeToyEnvironment();
  std::printf("Client schema: R(80000) -> S(700), T(1500)\n");
  std::printf("Cardinality constraints from the AQP (Figure 1d):\n");
  for (const CardinalityConstraint& cc : env.ccs) {
    std::printf("  %s\n", cc.ToString(env.schema).c_str());
  }

  // --- 2. Regenerate ------------------------------------------------------
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  if (!result.ok()) {
    std::printf("regeneration failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nDatabase summary generated in %s (%s, %llu extra tuples "
              "for referential integrity)\n",
              FormatDuration(result->total_seconds).c_str(),
              FormatBytes(result->summary.ByteSize()).c_str(),
              (unsigned long long)result->summary.TotalExtraTuples());

  // Show the summary itself — the paper's Figure 5 artifact.
  for (const RelationSummary& rs : result->summary.relations) {
    const Relation& rel = env.schema.relation(rs.relation);
    std::printf("\nSummary of %s (%lld tuples in %zu groups):\n",
                rel.name().c_str(), (long long)rs.TotalCount(),
                rs.rows.size());
    std::vector<std::string> header = {"pk range"};
    for (int a : rs.attr_indices) header.push_back(rel.attribute(a).name);
    header.push_back("NumTuples");
    TextTable table(header);
    for (size_t i = 0; i < rs.rows.size() && i < 8; ++i) {
      std::vector<std::string> row;
      row.push_back(std::to_string(rs.prefix_counts[i]) + "-" +
                    std::to_string(rs.prefix_counts[i] + rs.rows[i].count - 1));
      for (Value v : rs.rows[i].values) row.push_back(std::to_string(v));
      row.push_back(std::to_string(rs.rows[i].count));
      table.AddRow(std::move(row));
    }
    std::printf("%s", table.Render().c_str());
    if (rs.rows.size() > 8) {
      std::printf("  ... %zu more groups\n", rs.rows.size() - 8);
    }
  }

  // --- 3. Verify volumetric similarity -----------------------------------
  auto db = hydra.Materialize(result->summary);
  if (!db.ok()) {
    std::printf("materialization failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Executor executor(env.schema, ExecOptions{/*num_threads=*/1});
  auto aqp = executor.Execute(env.query, *db);
  if (!aqp.ok()) {
    std::printf("execution failed: %s\n", aqp.status().ToString().c_str());
    return 1;
  }
  std::printf("\nRe-executing the Figure 1b query on the synthetic data:\n");
  TextTable table({"plan edge", "required", "observed"});
  const std::vector<uint64_t> want = {400, 900, 50000, 30000};
  for (size_t i = 0; i < aqp->steps.size(); ++i) {
    table.AddRow({aqp->steps[i].label,
                  i < want.size() ? std::to_string(want[i]) : "-",
                  std::to_string(aqp->steps[i].cardinality)});
  }
  std::printf("%s", table.Render().c_str());
  if (aqp->steps.size() != want.size()) {
    std::printf("\nThe plan has %zu edges, the client's AQP %zu.\n",
                aqp->steps.size(), want.size());
    return 1;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (aqp->steps[i].cardinality != want[i]) {
      std::printf("\nPlan edge %s differs: observed %llu, required %llu.\n",
                  aqp->steps[i].label.c_str(),
                  (unsigned long long)aqp->steps[i].cardinality,
                  (unsigned long long)want[i]);
      return 1;
    }
  }
  std::printf("\nDone: the synthetic database is volumetrically identical.\n");
  return 0;
}
