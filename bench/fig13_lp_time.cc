// Figure 13: LP processing time — DataSynth vs Hydra on the complex (WLc)
// and simple (WLs) workloads.
//
// Paper's table:
//              WLc            WLs
//   DataSynth  crash          50 min
//   Hydra      58 sec         13 sec
//
// The crash is the LP solver giving up on the grid formulation's variable
// count; we reproduce it as the solver's RESOURCE_EXHAUSTED budget.

#include "bench_util.h"
#include "datasynth/datasynth.h"
#include "hydra/regenerator.h"

namespace {

struct Cell {
  std::string text;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hydra;
  using namespace hydra::bench;

  JsonReporter json("fig13_lp_time", argc, argv);
  PrintHeader("Figure 13 — LP Processing Time",
              "DataSynth: crash (WLc) / 50 min (WLs); Hydra: 58 s / 13 s");

  const ClientSite wlc =
      BuildTpcdsSite(/*scale_factor=*/4.0, TpcdsWorkloadKind::kComplex, 131);
  const ClientSite wls =
      BuildTpcdsSite(/*scale_factor=*/4.0, TpcdsWorkloadKind::kSimple, 80);
  std::printf("WLc CCs: %zu    WLs CCs: %zu\n\n", wlc.ccs.size(),
              wls.ccs.size());

  struct Measurement {
    std::string time;
    std::string variables;
  };

  auto hydra_measure = [&json](const ClientSite& site,
                               const std::string& record_name) {
    // Solve views sequentially: the figure (and the JSON perf trajectory)
    // tracks LP time itself, and summed per-view durations measured under
    // concurrent execution would fold scheduler contention into the metric.
    HydraOptions options;
    options.num_threads = 1;
    HydraRegenerator hydra(site.schema, options);
    auto result = hydra.Regenerate(site.ccs);
    HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
    double lp_seconds = 0;
    uint64_t lp_iterations = 0;
    for (const ViewReport& v : result->views) {
      lp_seconds += v.formulate_seconds + v.solve_seconds;
      lp_iterations += v.lp_iterations;
    }
    json.Record(record_name, lp_seconds, lp_iterations);
    return Measurement{FormatDuration(lp_seconds),
                       FormatCount(result->TotalLpVariables())};
  };

  auto datasynth_measure = [](const ClientSite& site) {
    DataSynthOptions options;
    // A grid beyond this many variables overwhelms the solver — the paper's
    // crash. (Z3 died on "several billion"; our budget is deliberately lower
    // so the bench finishes, the semantics are identical.)
    options.simplex.max_variables = 2'000'000;
    DataSynthRegenerator ds(site.schema, options);
    auto result = ds.Regenerate(site.ccs);
    auto vars = ds.CountLpVariables(site.ccs, 1ull << 62);
    HYDRA_CHECK_OK(vars.status());
    uint64_t total_vars = 0;
    for (uint64_t v : *vars) total_vars += v;
    if (!result.ok()) {
      return Measurement{
          "crash (" + std::string(StatusCodeName(result.status().code())) +
              ")",
          FormatCount(total_vars)};
    }
    return Measurement{FormatDuration(result->lp_seconds),
                       FormatCount(total_vars)};
  };

  const Measurement hydra_wlc = hydra_measure(wlc, "hydra_lp_wlc");
  const Measurement hydra_wls = hydra_measure(wls, "hydra_lp_wls");
  const Measurement ds_wlc = datasynth_measure(wlc);
  const Measurement ds_wls = datasynth_measure(wls);

  TextTable table({"", "Complex Workload (WLc)", "Simple Workload (WLs)"});
  table.AddRow({"DataSynth time", ds_wlc.time, ds_wls.time});
  table.AddRow({"Hydra time", hydra_wlc.time, hydra_wls.time});
  table.AddRow({"DataSynth LP variables", ds_wlc.variables,
                ds_wls.variables});
  table.AddRow({"Hydra LP variables", hydra_wlc.variables,
                hydra_wls.variables});
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Shape check vs paper: DataSynth crashes on WLc; its WLs formulation\n"
      "carries orders of magnitude more variables. (Documented deviation:\n"
      "the paper's 50-minute WLs figure reflects Z3, an SMT solver, on the\n"
      "grid LP; our phase-I revised simplex is specialized for pure LP\n"
      "feasibility and absorbs the variable blow-up in wall-clock terms —\n"
      "the structural gap is the variable counts above.)\n");
  return 0;
}
