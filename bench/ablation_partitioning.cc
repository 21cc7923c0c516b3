// Ablation: the design choices DESIGN.md calls out for the partitioning
// layer, measured on TPC-DS-style wide dimension probes.
//
// (a) Lazy constraint tracking in Algorithm 2 — refining a block only while
//     it is still inside the sub-constraint on every processed dimension —
//     versus the naive per-dimension refinement. This is the difference
//     between a valid partition that grows additively with the predicates
//     and one that degenerates towards the cross-product grid.
// (b) Label-merging (Algorithm 1 step 4): number of blocks of the valid
//     partition versus the final region (LP variable) count.
// (c) Both compared against the grid cell count (DataSynth).

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "common/text_table.h"
#include "partition/grid_partition.h"
#include "partition/region_partition.h"

namespace {

using namespace hydra;

double Seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// `count` narrow conjunctive constraints over `dims` dimensions — the shape
// of TPC-DS wide dimension probes.
std::vector<DnfPredicate> WideProbes(int count, int dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<DnfPredicate> out;
  for (int i = 0; i < count; ++i) {
    Conjunct c;
    for (int d = 0; d < dims; ++d) {
      const int64_t width = 1000;
      const int64_t span = 10 + rng.NextInt(0, 90);
      const int64_t lo = rng.NextInt(0, width - span);
      c.AddAtom(AtomRange(d, lo, lo + span));
    }
    DnfPredicate p;
    p.AddConjunct(std::move(c));
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hydra;
  using namespace hydra::bench;
  hydra::bench::JsonReporter json("ablation_partitioning", argc, argv);
  std::printf(
      "==================================================================\n"
      "Ablation — partitioning design choices (Algorithm 2 variants)\n"
      "==================================================================\n\n");

  TextTable table({"constraints", "dims", "grid cells", "naive blocks",
                   "lazy blocks", "regions (LP vars)", "naive t", "lazy t"});
  for (const auto& [count, dims] : std::vector<std::pair<int, int>>{
           {4, 2}, {8, 2}, {8, 4}, {12, 4}, {16, 5}, {24, 5}}) {
    const auto constraints = WideProbes(count, dims, 42 + count + dims);
    const std::vector<Interval> domains(dims, Interval(0, 1000));

    const GridPartition grid = BuildGridPartition(domains, constraints);

    std::vector<Conjunct> conjuncts;
    for (const auto& p : constraints) {
      for (const auto& c : p.conjuncts()) conjuncts.push_back(c);
    }

    // The naive variant's block count tracks the grid; past ~10^7 cells it
    // exhausts memory outright (that failure mode *is* the finding) — skip
    // the measurement there instead of OOM-ing the bench.
    std::string naive_count = "OOM (> grid/10 blocks)";
    std::string naive_time = "-";
    const std::string tag =
        "c" + std::to_string(count) + "_d" + std::to_string(dims);
    if (grid.NumCellsCapped(1ull << 62) < 10'000'000) {
      RegionPartitionOptions naive;
      naive.lazy_constraint_tracking = false;
      const auto t_naive = std::chrono::steady_clock::now();
      const auto naive_blocks = BuildValidBlocks(domains, conjuncts, naive);
      const double naive_seconds = Seconds(t_naive);
      naive_count = FormatCount(naive_blocks.size());
      naive_time = FormatDuration(naive_seconds);
      json.Record("naive_blocks_" + tag, naive_seconds);
    }

    const auto t_lazy = std::chrono::steady_clock::now();
    const auto lazy_blocks = BuildValidBlocks(domains, conjuncts);
    const double lazy_seconds = Seconds(t_lazy);
    json.Record("lazy_blocks_" + tag, lazy_seconds);

    const RegionPartition regions =
        BuildRegionPartition(domains, constraints);

    table.AddRow({std::to_string(count), std::to_string(dims),
                  FormatCount(grid.NumCellsCapped(1ull << 62)), naive_count,
                  FormatCount(lazy_blocks.size()),
                  FormatCount(regions.num_regions()), naive_time,
                  FormatDuration(lazy_seconds)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading: lazy tracking keeps the valid partition orders of magnitude\n"
      "below the naive variant (which tracks the grid); label-merging then\n"
      "collapses blocks into the optimal region count — the LP only ever\n"
      "sees the last column.\n");
  return 0;
}
