// Query-execution scaling of the morsel-driven engine (no paper analogue —
// this tracks the PR-over-PR perf trajectory of the executor itself).
//
// Two end-to-end surfaces, on the TPC-DS complex workload, both run as
// query batches (Executor::ExecuteAll: whole queries on N workers):
//   aqp_collect_tN     — AQP collection over the materialized client
//                        database (filtered morsel scans + the probe chain);
//   similarity_gen_tN  — vendor-side volumetric-similarity evaluation over
//                        a TupleGenerator (the `datagen` scan replacement),
//                        where every probed tuple is generated on demand.
// Results must be identical at every thread count (verified here); wall
// clock should scale with cores. A third surface times the lone-query path
// that serving's ExecuteQuery runs:
//   lone_gen_t1        — the same queries as a loop of lone Execute calls
//                        over the generator, each on the calling thread;
//                        every plan must equal the batch's.
// Each record runs kPasses back-to-back passes over the query set and
// reports kPasses × the median pass: as long as the kPasses sum, so it
// stays above tools/compare_bench.py's 10 ms noise floor even where one
// pass takes a few milliseconds, but one slow pass (a descheduled worker)
// cannot move it.

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"

int main(int argc, char** argv) {
  using namespace hydra;
  using namespace hydra::bench;
  constexpr int kPasses = 8;

  JsonReporter json("fig_query_exec", argc, argv);
  PrintHeader("Query-execution scaling — morsel-driven engine",
              "engine-side addition (no paper figure): results identical at "
              "any thread count, wall clock scales with cores");

  const ClientSite site =
      BuildTpcdsSite(/*scale_factor=*/2.0, TpcdsWorkloadKind::kComplex, 60);
  std::printf("queries: %zu   CCs: %zu   client rows: %llu\n\n",
              site.queries.size(), site.ccs.size(),
              (unsigned long long)site.database.TotalRows());

  HydraRegenerator hydra(site.schema);
  auto regen = hydra.Regenerate(site.ccs);
  HYDRA_CHECK_MSG(regen.ok(), regen.status().ToString());
  TupleGenerator generator(regen->summary);

  // kPasses × the median of the per-pass times.
  const auto passes_at_median = [](std::vector<double> passes) {
    std::sort(passes.begin(), passes.end());
    const size_t n = passes.size();
    const double median = n % 2 == 1 ? passes[n / 2]
                                     : (passes[n / 2 - 1] + passes[n / 2]) / 2;
    return static_cast<double>(n) * median;
  };

  struct Sample {
    int threads;
    double aqp_seconds;
    double similarity_seconds;
  };
  std::vector<Sample> samples;
  std::vector<uint64_t> baseline_cards;

  for (int threads : {1, 2, 4, 8}) {
    const ExecOptions exec{threads, 4096};

    // AQP collection over the materialized client database, as one query
    // batch per pass.
    const Executor executor(site.schema, exec);
    std::vector<uint64_t> cards;
    std::vector<double> aqp_passes;
    for (int pass = 0; pass < kPasses; ++pass) {
      Timer pass_timer;
      auto aqps = executor.ExecuteAll(site.queries, site.database);
      aqp_passes.push_back(pass_timer.Seconds());
      HYDRA_CHECK_MSG(aqps.ok(), aqps.status().ToString());
      if (pass > 0) continue;
      for (const AnnotatedQueryPlan& aqp : *aqps) {
        for (const AqpStep& step : aqp.steps) {
          cards.push_back(step.cardinality);
        }
      }
    }
    const double aqp_seconds = passes_at_median(aqp_passes);

    // Vendor-side similarity over dynamically generated tuples.
    StatusOr<SimilarityReport> report = Status::Internal("not run");
    std::vector<double> sim_passes;
    for (int pass = 0; pass < kPasses; ++pass) {
      Timer pass_timer;
      auto again = MeasureVolumetricSimilarity(site, generator, exec);
      sim_passes.push_back(pass_timer.Seconds());
      HYDRA_CHECK_MSG(again.ok(), again.status().ToString());
      if (pass == 0) report = std::move(again);
    }
    const double sim_seconds = passes_at_median(sim_passes);
    for (const SimilarityEntry& e : report->entries) {
      cards.push_back(e.vendor_cardinality);
    }

    if (threads == 1) {
      baseline_cards = cards;
    } else {
      HYDRA_CHECK_MSG(cards == baseline_cards,
                      "results diverge at " << threads << " threads");
    }

    json.Record("aqp_collect_t" + std::to_string(threads), aqp_seconds,
                kPasses * site.queries.size());
    json.Record("similarity_gen_t" + std::to_string(threads), sim_seconds,
                kPasses * report->entries.size());
    samples.push_back({threads, aqp_seconds, sim_seconds});
  }

  // Lone queries over the generator: the batch's plans are the reference.
  const Executor lone(site.schema, ExecOptions{1, 4096});
  auto batch_plans = lone.ExecuteAll(site.queries, generator);
  HYDRA_CHECK_MSG(batch_plans.ok(), batch_plans.status().ToString());
  std::vector<AnnotatedQueryPlan> plans(site.queries.size());
  std::vector<double> lone_passes;
  for (int pass = 0; pass < kPasses; ++pass) {
    Timer pass_timer;
    for (size_t q = 0; q < site.queries.size(); ++q) {
      auto aqp = lone.Execute(site.queries[q], generator);
      HYDRA_CHECK_MSG(aqp.ok(), aqp.status().ToString());
      plans[q] = std::move(aqp).value();
    }
    lone_passes.push_back(pass_timer.Seconds());
    for (size_t q = 0; q < plans.size(); ++q) {
      const std::vector<AqpStep>& want = (*batch_plans)[q].steps;
      HYDRA_CHECK_MSG(plans[q].steps.size() == want.size(),
                      "lone plan of query " << q << " diverges");
      for (size_t i = 0; i < want.size(); ++i) {
        const AqpStep& got = plans[q].steps[i];
        const bool same = got.label == want[i].label &&
                          got.cardinality == want[i].cardinality;
        HYDRA_CHECK_MSG(same, "lone plan of query " << q << " diverges");
      }
    }
  }
  const double lone_seconds = passes_at_median(lone_passes);
  json.Record("lone_gen_t1", lone_seconds, kPasses * site.queries.size());

  TextTable table({"threads", "AQP collection", "speedup",
                   "similarity (datagen)", "speedup"});
  for (const Sample& s : samples) {
    table.AddRow({std::to_string(s.threads),
                  FormatDuration(s.aqp_seconds),
                  TextTable::Cell(samples[0].aqp_seconds / s.aqp_seconds, 2),
                  FormatDuration(s.similarity_seconds),
                  TextTable::Cell(
                      samples[0].similarity_seconds / s.similarity_seconds,
                      2)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("lone queries (datagen, each on the calling thread): %s\n\n",
              FormatDuration(lone_seconds).c_str());
  std::printf(
      "Each time is %d x the median of %d passes over the query set.\n"
      "All cardinalities verified identical across thread counts.\n"
      "Expected shape: near-linear speedup up to the hardware thread count,\n"
      "each worker running whole queries; the similarity path adds\n"
      "per-tuple generation work and scales with it.\n",
      kPasses, kPasses);
  const unsigned hw = std::thread::hardware_concurrency();
  const double speedup_t8 =
      samples[0].aqp_seconds / samples.back().aqp_seconds;
  if (hw >= 4 && speedup_t8 < 1.2) {
    std::printf(
        "\nWARNING: %u hardware threads but only %.2fx speedup at 8 worker\n"
        "threads — the query-batch dispatch may have lost its parallelism.\n",
        hw, speedup_t8);
  } else if (hw < 4) {
    std::printf(
        "\nNote: only %u hardware thread(s) — speedup cannot manifest here;\n"
        "the cross-thread identity check above is the correctness signal.\n",
        hw);
  }
  return 0;
}
