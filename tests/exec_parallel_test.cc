// Parallel-vs-sequential identity of the morsel-driven execution engine:
// AQP cardinalities, similarity reports, and SourceScanOp row streams must
// be byte-identical at any {num_threads, morsel_rows} setting and at either
// kernel dispatch path, over both materialized (Database) and dynamically
// generated (TupleGenerator) sources. Also covers the morsel edge cases:
// empty relation, relation smaller than one morsel, 1-row morsels, pushed
// filters that keep nothing, everything or every other row, and a scan
// destroyed mid-stream.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/operators.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "workload/toy.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

// The scan's whole output as row-major values: order-sensitive, so equality
// means an identical row stream.
std::vector<Value> Drain(SourceScanOp* scan) {
  scan->Open();
  std::vector<Value> values;
  RowBlock block;
  while (scan->NextBatch(&block)) {
    EXPECT_GT(block.num_rows(), 0) << "NextBatch must not emit empty batches";
    for (int64_t r = 0; r < block.num_rows(); ++r) {
      const size_t base = values.size();
      values.resize(base + block.num_columns());
      block.CopyRowTo(r, values.data() + base);
    }
  }
  return values;
}

// FNV-1a over a drained stream: compact to compare and to print.
uint64_t StreamHash(const std::vector<Value>& values) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Value v : values) {
    h = (h ^ static_cast<uint64_t>(v)) * 0x100000001b3ull;
  }
  return h;
}

// A one-relation summary of T(id, a): the generated stream is (rank, a)
// rows whose `a` runs through `value_runs` as (value, count) pairs.
DatabaseSummary RunSummary(
    const std::vector<std::pair<Value, int64_t>>& value_runs) {
  RelationSummary rs;
  rs.relation = 0;
  rs.attr_indices = {1};
  int64_t rows = 0;
  for (const auto& [value, count] : value_runs) {
    rs.rows.push_back({{value}, count});
    rows += count;
  }
  rs.Finalize();
  Relation t("T", static_cast<uint64_t>(rows));
  t.AddPrimaryKey("id");
  t.AddDataAttribute("a", Interval(0, 1000));
  DatabaseSummary summary;
  summary.schema.AddRelation(std::move(t));
  summary.relations.push_back(std::move(rs));
  summary.extra_tuples = {0};
  return summary;
}

// A generator over `summary` and the database materialized from it, which
// serve the same row streams.
struct Sources {
  explicit Sources(DatabaseSummary s) : summary(std::move(s)), gen(summary) {
    auto materialized = MaterializeDatabase(summary);
    EXPECT_TRUE(materialized.ok()) << materialized.status().ToString();
    db = std::make_unique<Database>(std::move(materialized).value());
  }
  std::vector<const TableSource*> all() const { return {db.get(), &gen}; }

  DatabaseSummary summary;  // outlives `gen`, which reads it
  TupleGenerator gen;
  std::unique_ptr<Database> db;
};

const char* SourceName(const Sources& sources, const TableSource* source) {
  return source == &sources.gen ? "generator" : "database";
}

std::vector<std::pair<std::string, uint64_t>> AqpSignature(
    const AnnotatedQueryPlan& aqp) {
  std::vector<std::pair<std::string, uint64_t>> sig;
  for (const AqpStep& step : aqp.steps) {
    sig.emplace_back(step.label, step.cardinality);
  }
  return sig;
}

TEST(ParallelExecutorTest, TpcdsSiteIdenticalAcrossThreadCounts) {
  Schema schema = TpcdsSchema(0.2);
  const auto make_site = [&](int threads) {
    auto queries = TpcdsWorkload(schema, TpcdsWorkloadKind::kSimple, 10, 9);
    // An odd morsel size forces boundaries mid-relation.
    auto site = BuildClientSite(schema, DataGenOptions{.seed = 3},
                                std::move(queries),
                                ExecOptions{threads, 1000});
    EXPECT_TRUE(site.ok()) << site.status().ToString();
    return std::move(*site);
  };
  const ClientSite base = make_site(1);
  for (int threads : {2, 8}) {
    const ClientSite site = make_site(threads);
    ASSERT_EQ(site.ccs.size(), base.ccs.size()) << threads << " threads";
    for (size_t i = 0; i < base.ccs.size(); ++i) {
      EXPECT_EQ(site.ccs[i].label, base.ccs[i].label);
      EXPECT_EQ(site.ccs[i].cardinality, base.ccs[i].cardinality)
          << base.ccs[i].label << " at " << threads << " threads";
    }
    ASSERT_EQ(site.aqps.size(), base.aqps.size());
    for (size_t q = 0; q < base.aqps.size(); ++q) {
      EXPECT_EQ(AqpSignature(site.aqps[q]), AqpSignature(base.aqps[q]));
    }
  }
}

TEST(ParallelExecutorTest, GeneratorSourceIdenticalAcrossThreadCounts) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator gen(result->summary);

  Executor base(env.schema, ExecOptions{1, 4096});
  auto base_aqp = base.Execute(env.query, gen);
  ASSERT_TRUE(base_aqp.ok());
  for (int threads : {2, 8}) {
    Executor ex(env.schema, ExecOptions{threads, 777});
    auto aqp = ex.Execute(env.query, gen);
    ASSERT_TRUE(aqp.ok());
    EXPECT_EQ(AqpSignature(*aqp), AqpSignature(*base_aqp))
        << threads << " threads";
  }
}

TEST(ParallelExecutorTest, SimilarityReportIdenticalAcrossThreadCounts) {
  ToyEnvironment env = MakeToyEnvironment();
  auto site = BuildClientSite(env.schema, DataGenOptions{.seed = 6},
                              {env.query});
  ASSERT_TRUE(site.ok());
  HydraRegenerator hydra(site->schema);
  auto result = hydra.Regenerate(site->ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator vendor(result->summary);

  auto base = MeasureVolumetricSimilarity(*site, vendor, ExecOptions{1});
  ASSERT_TRUE(base.ok());
  for (int threads : {2, 8}) {
    auto report =
        MeasureVolumetricSimilarity(*site, vendor, ExecOptions{threads, 500});
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->entries.size(), base->entries.size());
    for (size_t i = 0; i < base->entries.size(); ++i) {
      EXPECT_EQ(report->entries[i].label, base->entries[i].label);
      EXPECT_EQ(report->entries[i].client_cardinality,
                base->entries[i].client_cardinality);
      EXPECT_EQ(report->entries[i].vendor_cardinality,
                base->entries[i].vendor_cardinality)
          << base->entries[i].label << " at " << threads << " threads";
      EXPECT_DOUBLE_EQ(report->entries[i].signed_relative_error,
                       base->entries[i].signed_relative_error);
    }
  }
}

TEST(ParallelScanTest, GeneratorSourceRowOrderIdentical) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator gen(result->summary);
  const int s = env.schema.RelationIndex("S");
  const int cols = env.schema.relation(s).num_attributes();

  SourceScanOp sequential(&gen, s, cols);
  const std::vector<Value> base = Drain(&sequential);
  ASSERT_EQ(base.size(), gen.RowCount(s) * cols);
  for (int threads : {1, 2, 8}) {
    ExecContext ctx(ExecOptions{threads, 13});
    SourceScanOp scan(&gen, s, cols, DnfPredicate::True(), &ctx);
    EXPECT_EQ(Drain(&scan), base) << threads << " threads";
  }
}

TEST(MorselEdgeCaseTest, EmptyRelation) {
  const Sources sources(RunSummary({}));
  ExecContext ctx(ExecOptions{8, 16});
  for (const TableSource* source : sources.all()) {
    SourceScanOp scan(source, 0, 2, DnfPredicate::True(), &ctx);
    scan.Open();
    RowBlock block;
    EXPECT_FALSE(scan.NextBatch(&block)) << SourceName(sources, source);
    EXPECT_TRUE(Drain(&scan).empty()) << SourceName(sources, source);
  }
}

TEST(MorselEdgeCaseTest, RelationSmallerThanOneMorsel) {
  const Sources sources(RunSummary({{7, 2}, {9, 3}}));
  ExecContext ctx(ExecOptions{8, 1 << 20});
  for (const TableSource* source : sources.all()) {
    SourceScanOp scan(source, 0, 2, DnfPredicate::True(), &ctx);
    EXPECT_EQ(Drain(&scan), (std::vector<Value>{0, 7, 1, 7, 2, 9, 3, 9, 4, 9}))
        << SourceName(sources, source);
  }
}

TEST(MorselEdgeCaseTest, SingleRowMorsels) {
  const Sources sources(RunSummary({{5, 6}, {6, 11}}));
  std::vector<Value> want;
  for (int64_t i = 0; i < 17; ++i) {
    want.push_back(i);
    want.push_back(i < 6 ? 5 : 6);
  }
  ExecContext ctx(ExecOptions{4, 1});
  for (const TableSource* source : sources.all()) {
    SourceScanOp scan(source, 0, 2, DnfPredicate::True(), &ctx);
    EXPECT_EQ(Drain(&scan), want) << SourceName(sources, source);
  }
}

TEST(SelectionVectorTest, PushedFilterEdgeCases) {
  // The selection-vector path through SourceScanOp's pushed filter: empty
  // input, no row passes, all pass, and every other row, sequentially and
  // over 1- and 3-row morsels on a pool.
  std::vector<std::pair<Value, int64_t>> alternating;
  for (int64_t i = 0; i < 23; ++i) alternating.push_back({i % 2, 1});
  const Sources empty(RunSummary({}));
  const Sources sources(RunSummary(alternating));
  std::vector<Value> all_rows;
  std::vector<Value> odd_rows;
  for (int64_t i = 0; i < 23; ++i) {
    all_rows.insert(all_rows.end(), {i, i % 2});
    if (i % 2 == 1) odd_rows.insert(odd_rows.end(), {i, 1});
  }
  const auto filtered = [](const TableSource* source, DnfPredicate pred,
                           ExecContext* ctx) {
    SourceScanOp scan(source, 0, 2, std::move(pred), ctx);
    return Drain(&scan);
  };
  ExecContext single_row_morsels(ExecOptions{4, 1});
  ExecContext three_row_morsels(ExecOptions{4, 3});
  ExecContext* const contexts[] = {nullptr, &single_row_morsels,
                                   &three_row_morsels};
  for (ExecContext* ctx : contexts) {
    for (const TableSource* source : empty.all()) {
      EXPECT_TRUE(
          filtered(source, PredicateOf(AtomRange(1, 0, 100)), ctx).empty());
    }
    for (const TableSource* source : sources.all()) {
      SCOPED_TRACE(SourceName(sources, source));
      // No row passes.
      EXPECT_TRUE(
          filtered(source, PredicateOf(AtomRange(1, 500, 600)), ctx).empty());
      // All pass: every row survives, in order.
      EXPECT_EQ(filtered(source, PredicateOf(AtomRange(1, 0, 100)), ctx),
                all_rows);
      // Alternating: every other row survives.
      EXPECT_EQ(filtered(source, PredicateOf(AtomRange(1, 1, 2)), ctx),
                odd_rows);
    }
  }
}

TEST(CrossLayoutIdentityTest, ScalarVsSimdAcrossThreadsAndMorsels) {
  // The dispatch contract: the executor's AQP cardinalities and the pushed-
  // filter scan's row stream are byte-identical between the scalar and SIMD
  // kernel paths, at every {num_threads, morsel_rows} combination, over
  // both sources.
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  const Sources sources(result->summary);
  const int s = env.schema.RelationIndex("S");
  const int cols = env.schema.relation(s).num_attributes();
  const int a = env.schema.relation(s).AttrIndex("A");
  const DnfPredicate pred = PredicateOf(AtomRange(a, 20, 60));

  // Per source: the AQP signature and the σ(S) stream hash.
  using Signature =
      std::pair<std::vector<std::pair<std::string, uint64_t>>, uint64_t>;
  const auto run = [&](const TableSource* source, int threads,
                       int64_t morsel_rows) {
    ExecContext ctx(ExecOptions{threads, morsel_rows});
    auto aqp = Executor(env.schema, &ctx).Execute(env.query, *source);
    EXPECT_TRUE(aqp.ok()) << aqp.status().ToString();
    SourceScanOp scan(source, s, cols, pred, &ctx);
    return Signature{AqpSignature(*aqp), StreamHash(Drain(&scan))};
  };

  kernels::SetSimdEnabled(true);
  for (const TableSource* source : sources.all()) {
    const Signature baseline = run(source, 1, 4096);
    ASSERT_FALSE(baseline.first.empty());
    for (const bool simd : {false, true}) {
      kernels::SetSimdEnabled(simd);
      for (const int threads : {1, 2, 8}) {
        for (const int64_t morsel : {311, 4096}) {
          EXPECT_EQ(run(source, threads, morsel), baseline)
              << SourceName(sources, source) << " x "
              << (simd ? kernels::SimdLevelName() : "scalar") << " x "
              << threads << " threads x morsel " << morsel;
        }
      }
    }
    kernels::SetSimdEnabled(true);
  }
}

TEST(MorselEdgeCaseTest, DestroyMidStreamDrainsInFlightMorsels) {
  // A consumer that stops early leaves morsels in flight; the scan must
  // drain them cleanly on destruction after emitting the correct prefix.
  const Sources sources(RunSummary({{3, 1000}}));
  ExecContext ctx(ExecOptions{8, 3});
  for (const TableSource* source : sources.all()) {
    SourceScanOp scan(source, 0, 2, DnfPredicate::True(), &ctx);
    scan.Open();
    std::vector<Value> prefix;
    RowBlock block;
    while (prefix.size() < 2 * 10 && scan.NextBatch(&block)) {
      for (int64_t r = 0; r < block.num_rows(); ++r) {
        prefix.push_back(block.Column(0)[r]);
        prefix.push_back(block.Column(1)[r]);
      }
    }
    ASSERT_GE(prefix.size(), 2u * 10);
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(prefix[2 * i], i) << SourceName(sources, source);
      EXPECT_EQ(prefix[2 * i + 1], 3) << SourceName(sources, source);
    }
  }
}

}  // namespace
}  // namespace hydra
