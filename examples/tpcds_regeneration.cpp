// TPC-DS regeneration walk-through — the paper's headline scenario
// (Section 7): a decision-support warehouse with a 131-query complex
// workload is summarized at the vendor site and regenerated with high
// volumetric fidelity.
//
// Pipeline demonstrated here:
//   client: synthetic warehouse -> execute workload -> AQPs -> CCs
//   vendor: Hydra (region-partitioned LPs) -> database summary
//   check : materialize + re-run workload -> per-CC relative error

#include <chrono>
#include <cstdio>

#include "common/text_table.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

int main() {
  using namespace hydra;

  // --- Client site --------------------------------------------------------
  Schema schema = TpcdsSchema(/*scale_factor=*/4.0);
  auto queries = TpcdsWorkload(schema, TpcdsWorkloadKind::kComplex,
                               /*num_queries=*/131, /*seed=*/424242);
  std::printf("Building the client warehouse and executing %zu queries...\n",
              queries.size());
  auto site = BuildClientSite(schema, DataGenOptions{.seed = 99},
                              std::move(queries));
  if (!site.ok()) {
    std::printf("client site failed: %s\n", site.status().ToString().c_str());
    return 1;
  }
  std::printf("client database: %s in %d relations\n",
              FormatBytes(site->database.TotalBytes()).c_str(),
              site->schema.num_relations());
  std::printf("cardinality constraints extracted: %zu\n\n", site->ccs.size());

  // --- Vendor site ---------------------------------------------------------
  HydraRegenerator hydra(site->schema);
  auto result = hydra.Regenerate(site->ccs);
  if (!result.ok()) {
    std::printf("regeneration failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }
  std::printf("database summary built in %s (size %s)\n",
              FormatDuration(result->total_seconds).c_str(),
              FormatBytes(result->summary.ByteSize()).c_str());
  std::printf("largest view LP: %s region variables\n\n",
              FormatCount(result->MaxLpVariables()).c_str());

  TextTable views({"view", "sub-views", "LP vars", "LP rows", "solve"});
  for (const ViewReport& v : result->views) {
    if (v.lp_variables == 0) continue;
    views.AddRow({site->schema.relation(v.relation).name(),
                  std::to_string(v.num_subviews),
                  FormatCount(v.lp_variables), FormatCount(v.lp_constraints),
                  FormatDuration(v.formulate_seconds + v.solve_seconds)});
  }
  std::printf("%s\n", views.Render().c_str());

  // --- Fidelity check -------------------------------------------------------
  // The similarity evaluation re-runs the whole workload on the vendor
  // side; ExecOptions spreads its queries over the workers, and the report
  // must be identical at any thread count (checked below).
  auto db = MaterializeDatabase(result->summary);
  if (!db.ok()) return 1;
  const auto measure = [&](ExecOptions exec, double* seconds) {
    const auto start = std::chrono::steady_clock::now();
    auto r = MeasureVolumetricSimilarity(*site, *db, exec);
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    return r;
  };
  double t1_seconds = 0, tn_seconds = 0;
  auto report_t1 = measure(ExecOptions{/*num_threads=*/1}, &t1_seconds);
  auto report = measure(ExecOptions{/*num_threads=*/0}, &tn_seconds);
  if (!report.ok() || !report_t1.ok()) return 1;
  std::printf("workload re-execution: %s single-thread, %s with all cores "
              "(%.2fx)\n",
              FormatDuration(t1_seconds).c_str(),
              FormatDuration(tn_seconds).c_str(), t1_seconds / tn_seconds);
  if (report->entries.size() != report_t1->entries.size()) {
    std::printf("the reports differ in size: %zu vs %zu CCs\n",
                report->entries.size(), report_t1->entries.size());
    return 1;
  }
  for (size_t i = 0; i < report->entries.size(); ++i) {
    const SimilarityEntry& a = report->entries[i];
    const SimilarityEntry& b = report_t1->entries[i];
    if (a.label != b.label || a.client_cardinality != b.client_cardinality ||
        a.vendor_cardinality != b.vendor_cardinality ||
        a.signed_relative_error != b.signed_relative_error) {
      std::printf("the reports differ at CC %zu (%s)\n", i, a.label.c_str());
      return 1;
    }
  }
  std::printf("volumetric similarity on %zu CCs:\n", report->entries.size());
  for (double err : {0.0, 0.01, 0.1}) {
    std::printf("  within %4.0f%% error: %5.1f%% of CCs\n", err * 100,
                100 * report->FractionWithin(err));
  }
  std::printf("  max error: %.3f, negative deviations: %d\n",
              report->MaxAbsError(), report->CountNegative());
  return 0;
}
