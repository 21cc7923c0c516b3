// The repository benchmark's three workloads (README.md): regen_wlc,
// materialize_wls and serve_wire. Each run builds its inputs from a seed,
// sets up several times, times iterations of the workload's public calls
// for a fixed duration, checks every output, and reports named metrics.
// The traced variant drives the same layers stage by stage with spans
// around every call and reports the per-layer breakdown.

#ifndef HYDRA_PERFBENCH_WORKLOADS_H_
#define HYDRA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/constraint.h"
#include "span_recorder.h"
#include "workload/tpcds.h"

namespace perfbench {

struct WorkloadConfig {
  double scale_factor = 4;
  hydra::TpcdsWorkloadKind kind = hydra::TpcdsWorkloadKind::kComplex;
  int num_queries = 200;
  // The query workload is fixed per workload; --seed drives the client
  // database the CCs are measured on (README.md, "Seeds").
  uint64_t query_seed = 424242;
  // serve_wire: CODD factor applied to metadata and CCs before regenerating
  // the served summary.
  double codd_factor = 1;
  bool materialize = false;
  bool serve = false;
  // Set-ups per run; setup_s is their median and the last one is kept.
  int setups = 5;
  // Timed iterations that run even when the duration is already spent.
  int min_iterations = 2;
  // Scratch space for materialized tables and summaries.
  std::string work_dir;
  // regen_wlc and materialize_wls: constraints appended to the measured ones
  // (the tests add an invalid one to make every Regenerate fail).
  std::vector<hydra::CardinalityConstraint> extra_ccs;
};

// The benchmark's own sizes for `name`; NotFound for an unknown workload.
hydra::StatusOr<WorkloadConfig> BenchmarkConfig(const std::string& name,
                                                const std::string& work_dir);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  // For a median of samples: (Q3 - Q1) / median of those samples; negative
  // where the metric is not a median.
  double spread = -1;
};

struct RunReport {
  // Every public call and every output check is one attempted operation; a
  // non-OK status or a failed check is a failed one.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checks_failed = 0;
  std::vector<std::string> failures;  // the first few failure messages
  std::vector<std::string> notes;     // sizes and policies, printed first
  std::vector<Metric> metrics;
};

// Runs one workload for `seconds` (at least config.min_iterations timed
// iterations). With `recorder` set, the run is the traced one: it alternates
// untraced and traced iterations and reports per-layer metrics instead of
// end-to-end ones. A setup failure is returned as the status.
hydra::StatusOr<RunReport> RunWorkload(const WorkloadConfig& config,
                                       uint64_t seed, double seconds,
                                       SpanRecorder* recorder);

}  // namespace perfbench

#endif  // HYDRA_PERFBENCH_WORKLOADS_H_
