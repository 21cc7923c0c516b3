// Parallel-vs-sequential identity of the morsel-driven execution engine:
// AQP cardinalities and similarity reports must be byte-identical at any
// {num_threads, morsel_rows} setting, and ScanFiltered row streams at any
// morsel size, at either kernel dispatch path, over both materialized
// (Database) and dynamically generated (TupleGenerator) sources. Query
// batches (Executor::ExecuteAll) must return exactly the plans of lone
// Execute calls, in query order, and the first invalid query's status; a
// lone query runs on its caller's thread and puts nothing on the pool.
// Also covers the morsel edge cases: empty relation, relation smaller than
// one morsel, 1-row morsels, morsels of nearly INT64_MAX rows, and pushed
// filters that keep nothing, everything or every other row; and a cancel
// that trips mid-query, which stops a lone query within one morsel.
// Projected scans (each filling only the columns its plan reads) must
// return the plans of unprojected ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "engine/executor.h"
#include "engine/operators.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "workload/toy.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

// ScanFiltered's output over every column, as row-major values: order-
// sensitive, so equality means an identical row stream.
std::vector<Value> Drain(const TableSource& source, int relation, int width,
                         const DnfPredicate& filter = DnfPredicate::True(),
                         int64_t morsel_rows = ExecOptions{}.morsel_rows) {
  std::vector<int> columns(width);
  std::iota(columns.begin(), columns.end(), 0);
  RowBlock block;
  const Status status =
      ScanFiltered(source, relation, width, filter, columns, morsel_rows,
                   /*heads=*/false, nullptr, &block);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::vector<Value> values(static_cast<size_t>(block.num_rows() * width));
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    block.CopyRowTo(r, values.data() + r * width);
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

// Every field of a plan as text, so equal texts mean identical plans.
std::string PlanText(const AnnotatedQueryPlan& aqp) {
  std::string out = aqp.query_name + "\n";
  for (const AqpStep& step : aqp.steps) {
    out += step.label + " rel";
    for (int r : step.relations) out += " " + std::to_string(r);
    out += " join";
    for (const CcJoin& j : step.joins) {
      out += " " + std::to_string(j.fk_relation) + "." +
             std::to_string(j.fk_attr) + ">" + std::to_string(j.pk_relation);
    }
    out += " col";
    for (const AttrRef& c : step.columns) {
      out += " " + std::to_string(c.relation) + "." +
             std::to_string(c.attr);
    }
    out += " " + step.predicate.ToString() + " = " +
           std::to_string(step.cardinality) + "\n";
  }
  return out;
}

// The thread settings a batch must be invariant under: 1, 2, 4 and 8
// workers, odd morsel sizes, and the default (one worker per hardware
// thread).
const ExecOptions kBatchSettings[] = {
    ExecOptions{1, 4096}, ExecOptions{2, 4096}, ExecOptions{4, 777},
    ExecOptions{8, 1000}, ExecOptions{}};

std::string SettingName(const ExecOptions& exec) {
  return std::to_string(exec.num_threads) + " threads x morsel " +
         std::to_string(exec.morsel_rows);
}

// A 12-query WLc site at sf 0.2 and a generator over its regenerated
// summary: the two sources the batch tests run over. Built once.
struct TpcdsSources {
  ClientSite site;
  DatabaseSummary summary;
  std::unique_ptr<TupleGenerator> gen;

  std::vector<const TableSource*> all() const {
    return {&site.database, gen.get()};
  }
  const char* Name(const TableSource* source) const {
    return source == gen.get() ? "generator" : "database";
  }
};

const TpcdsSources& SharedTpcdsSources() {
  static const TpcdsSources* sources = [] {
    const Schema schema = TpcdsSchema(0.2);
    auto site = BuildClientSite(
        schema, DataGenOptions{.seed = 4},
        TpcdsWorkload(schema, TpcdsWorkloadKind::kComplex, 12, 5),
        ExecOptions{1});
    HYDRA_CHECK_MSG(site.ok(), site.status().ToString());
    auto* out = new TpcdsSources{std::move(*site), {}, nullptr};
    auto result = HydraRegenerator(out->site.schema).Regenerate(out->site.ccs);
    HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
    out->summary = std::move(result->summary);
    out->gen = std::make_unique<TupleGenerator>(out->summary);
    return out;
  }();
  return *sources;
}

TEST(ParallelExecutorTest, TpcdsSiteIdenticalAcrossThreadCounts) {
  Schema schema = TpcdsSchema(0.2);
  const auto make_site = [&](const ExecOptions& exec) {
    auto queries = TpcdsWorkload(schema, TpcdsWorkloadKind::kSimple, 10, 9);
    auto site = BuildClientSite(schema, DataGenOptions{.seed = 3},
                                std::move(queries), exec);
    EXPECT_TRUE(site.ok()) << site.status().ToString();
    return std::move(*site);
  };
  // An odd morsel size forces boundaries mid-relation.
  const ClientSite base = make_site(ExecOptions{1, 1000});
  for (const ExecOptions& exec :
       {ExecOptions{2, 1000}, ExecOptions{8, 1000}, ExecOptions{}}) {
    const ClientSite site = make_site(exec);
    ASSERT_EQ(site.ccs.size(), base.ccs.size()) << SettingName(exec);
    for (size_t i = 0; i < base.ccs.size(); ++i) {
      EXPECT_EQ(site.ccs[i].label, base.ccs[i].label);
      EXPECT_EQ(site.ccs[i].cardinality, base.ccs[i].cardinality)
          << base.ccs[i].label << " at " << SettingName(exec);
    }
    ASSERT_EQ(site.aqps.size(), base.aqps.size());
    for (size_t q = 0; q < base.aqps.size(); ++q) {
      EXPECT_EQ(PlanText(site.aqps[q]), PlanText(base.aqps[q]));
    }
  }
}

TEST(QueryBatchTest, PlansMatchLoneExecuteInQueryOrder) {
  const TpcdsSources& sources = SharedTpcdsSources();
  const ClientSite& site = sources.site;
  for (const TableSource* source : sources.all()) {
    SCOPED_TRACE(sources.Name(source));
    const Executor lone(site.schema, ExecOptions{1, 4096});
    std::vector<std::string> want;
    for (const Query& q : site.queries) {
      auto aqp = lone.Execute(q, *source);
      ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();
      want.push_back(PlanText(*aqp));
    }
    for (const ExecOptions& exec : kBatchSettings) {
      auto plans = Executor(site.schema, exec).ExecuteAll(site.queries,
                                                          *source);
      ASSERT_TRUE(plans.ok()) << plans.status().ToString();
      ASSERT_EQ(plans->size(), want.size()) << SettingName(exec);
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(PlanText((*plans)[i]), want[i])
            << "query " << i << " at " << SettingName(exec);
      }
    }
  }
}

// store_sales ⋈ date_dim ⋈ store_sales: every edge is a valid PK-FK join,
// but the query joins a relation with itself, which the executor rejects
// with kUnimplemented.
Query SelfJoinQuery(const Schema& schema, const std::string& name) {
  const int ss = schema.RelationIndex("store_sales");
  const int fk = schema.relation(ss).AttrIndex("ss_sold_date_sk");
  Query q;
  q.name = name;
  q.tables = {QueryTable{ss}, QueryTable{schema.RelationIndex("date_dim")},
              QueryTable{ss}};
  q.joins = {JoinEdge{0, fk, 1}, JoinEdge{2, fk, 1}};
  return q;
}

TEST(QueryBatchTest, ReturnsFirstInvalidQueryInQueryOrder) {
  const TpcdsSources& sources = SharedTpcdsSources();
  const ClientSite& site = sources.site;
  std::vector<Query> queries = site.queries;
  queries[3] = SelfJoinQuery(site.schema, "bad3");
  queries[5] = SelfJoinQuery(site.schema, "bad5");
  for (const ExecOptions& exec : kBatchSettings) {
    auto plans = Executor(site.schema, exec).ExecuteAll(queries,
                                                        site.database);
    ASSERT_EQ(plans.status().code(), StatusCode::kUnimplemented)
        << SettingName(exec) << ": " << plans.status().ToString();
    EXPECT_NE(plans.status().message().find("bad3"), std::string::npos)
        << SettingName(exec) << ": " << plans.status().ToString();
  }
}

TEST(QueryBatchTest, EmptyBatchReturnsNoPlans) {
  const TpcdsSources& sources = SharedTpcdsSources();
  for (const ExecOptions& exec : kBatchSettings) {
    for (const TableSource* source : sources.all()) {
      auto plans =
          Executor(sources.site.schema, exec).ExecuteAll({}, *source);
      ASSERT_TRUE(plans.ok()) << plans.status().ToString();
      EXPECT_TRUE(plans->empty()) << SettingName(exec);
    }
  }
}

TEST(QueryBatchTest, TrippedCancelScopeFailsTheBatch) {
  const TpcdsSources& sources = SharedTpcdsSources();
  CancelToken token;
  token.Cancel();
  const CancelScope scope(&token, Deadline::Infinite());
  for (const ExecOptions& exec : kBatchSettings) {
    auto plans = Executor(sources.site.schema, exec)
                     .ExecuteAll(sources.site.queries, sources.site.database,
                                 &scope);
    EXPECT_EQ(plans.status().code(), StatusCode::kCancelled)
        << SettingName(exec) << ": " << plans.status().ToString();
  }
}

// A lone query runs on its caller's thread: Execute at 4 threads puts no
// task on the executor's pool, while a batch of two still hands its
// queries to the pool's workers. Armed with a zero delay, the chaos hook
// thread_pool/dispatch only counts the pool's task starts and claimed
// indices.
TEST(LoneQueryTest, ExecuteStartsNoPoolTask) {
  const TpcdsSources& sources = SharedTpcdsSources();
  const ClientSite& site = sources.site;
  ASSERT_GE(site.queries.size(), 2u);
  ASSERT_TRUE(Failpoint::ArmFromString("thread_pool/dispatch=delay(0)").ok());
  const Failpoint* point = Failpoint::Find("thread_pool/dispatch");
  ASSERT_NE(point, nullptr);
  const Executor executor(site.schema, ExecOptions{4});
  for (const TableSource* source : sources.all()) {
    SCOPED_TRACE(sources.Name(source));
    const uint64_t before_lone = point->hits();
    for (const Query& query : site.queries) {
      auto aqp = executor.Execute(query, *source);
      ASSERT_TRUE(aqp.ok()) << aqp.status().ToString();
    }
    EXPECT_EQ(point->hits(), before_lone);
    const uint64_t before_batch = point->hits();
    auto plans =
        executor.ExecuteAll({site.queries[0], site.queries[1]}, *source);
    ASSERT_TRUE(plans.ok()) << plans.status().ToString();
    EXPECT_GT(point->hits(), before_batch);
  }
  Failpoint::DisarmAll();
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
  // A multi-query site, so that the batch actually spreads queries over
  // the workers.
  const TpcdsSources& sources = SharedTpcdsSources();
  const ClientSite& site = sources.site;
  auto base = MeasureVolumetricSimilarity(site, *sources.gen, ExecOptions{1});
  ASSERT_TRUE(base.ok());
  ASSERT_GT(base->entries.size(), site.queries.size());
  for (const ExecOptions& exec :
       {ExecOptions{2, 500}, ExecOptions{8, 500}, ExecOptions{}}) {
    auto report = MeasureVolumetricSimilarity(site, *sources.gen, exec);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->entries.size(), base->entries.size());
    for (size_t i = 0; i < base->entries.size(); ++i) {
      EXPECT_EQ(report->entries[i].label, base->entries[i].label);
      EXPECT_EQ(report->entries[i].client_cardinality,
                base->entries[i].client_cardinality);
      EXPECT_EQ(report->entries[i].vendor_cardinality,
                base->entries[i].vendor_cardinality)
          << base->entries[i].label << " at " << SettingName(exec);
      EXPECT_DOUBLE_EQ(report->entries[i].signed_relative_error,
                       base->entries[i].signed_relative_error);
    }
  }
}

// Forwards to a source the way a tracing wrapper does, overriding exactly
// the four TableSource virtuals, and records per relation the live-column
// sets its block fills asked for. An unprojected one fills every column of
// a scratch block instead and appends its rows, which drops the heads
// request too: the engine then reads full blocks of every row, as it did
// before projection.
class ForwardingSource : public TableSource {
 public:
  ForwardingSource(const TableSource& inner, bool unprojected)
      : inner_(inner), unprojected_(unprojected) {}

  uint64_t RowCount(int relation) const override {
    return inner_.RowCount(relation);
  }
  void Scan(int relation,
            const std::function<void(const Row&)>& fn) const override {
    inner_.Scan(relation, fn);
  }
  void ScanRange(int relation, int64_t begin, int64_t end,
                 const std::function<void(const Row&)>& fn) const override {
    inner_.ScanRange(relation, begin, end, fn);
  }
  void FillBlockRange(int relation, int64_t begin, int64_t end,
                      RowBlock* out) const override {
    if (unprojected_) {
      thread_local RowBlock full;
      full.Reset(out->num_columns());
      inner_.FillBlockRange(relation, begin, end, &full);
      out->AppendRange(full, 0, full.num_rows());
      return;
    }
    std::vector<int> live;
    for (int c = 0; c < out->num_columns(); ++c) {
      if (out->IsLive(c)) live.push_back(c);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      filled_[relation].insert(std::move(live));
    }
    inner_.FillBlockRange(relation, begin, end, out);
  }

  // The live-column sets seen since the last call, per relation.
  std::map<int, std::set<std::vector<int>>> TakeFilled() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(filled_, {});
  }

 private:
  const TableSource& inner_;
  const bool unprojected_;
  mutable std::mutex mu_;
  mutable std::map<int, std::set<std::vector<int>>> filled_;
};

// The columns a plan reads from query table t: its filter's and its join
// keys, ascending.
std::vector<int> ReadColumns(const Schema& schema, const Query& query,
                             int t) {
  std::set<int> columns;
  for (const int c : query.tables[t].filter.Columns()) columns.insert(c);
  for (const JoinEdge& edge : query.joins) {
    if (edge.fk_table == t) columns.insert(edge.fk_attr);
    if (edge.pk_table == t) {
      columns.insert(
          schema.relation(query.tables[t].relation).PrimaryKeyIndex());
    }
  }
  return std::vector<int>(columns.begin(), columns.end());
}

TEST(ProjectedScanTest, ScansFillFilterAndJoinKeyColumnsOnly) {
  const TpcdsSources& sources = SharedTpcdsSources();
  const ClientSite& site = sources.site;
  for (const TableSource* inner : sources.all()) {
    ForwardingSource projected(*inner, /*unprojected=*/false);
    ForwardingSource unprojected(*inner, /*unprojected=*/true);
    for (const ExecOptions& exec : {ExecOptions{1}, ExecOptions{2, 777}}) {
      const Executor executor(site.schema, exec);
      for (const Query& query : site.queries) {
        auto want = executor.Execute(query, unprojected);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        auto got = executor.Execute(query, projected);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(PlanText(*got), PlanText(*want))
            << sources.Name(inner) << " at " << SettingName(exec);

        // Every scan (the root's morsels, each other table's scan) asked
        // for exactly the columns its part of the plan reads.
        const auto filled = projected.TakeFilled();
        EXPECT_EQ(filled.size(), query.tables.size()) << query.name;
        for (size_t t = 0; t < query.tables.size(); ++t) {
          const int relation = query.tables[t].relation;
          const std::set<std::vector<int>> expected = {
              ReadColumns(site.schema, query, static_cast<int>(t))};
          const auto it = filled.find(relation);
          ASSERT_NE(it, filled.end()) << query.name << " table " << t;
          EXPECT_EQ(it->second, expected)
              << query.name << " table " << t << " ("
              << site.schema.relation(relation).name() << ")";
        }
      }
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

  const std::vector<Value> base = Drain(gen, s, cols);
  ASSERT_EQ(base.size(), gen.RowCount(s) * cols);
  EXPECT_EQ(Drain(gen, s, cols, DnfPredicate::True(), 13), base);
}

TEST(MorselEdgeCaseTest, EmptyRelation) {
  const Sources sources(RunSummary({}));
  for (const TableSource* source : sources.all()) {
    EXPECT_TRUE(Drain(*source, 0, 2, DnfPredicate::True(), 16).empty())
        << SourceName(sources, source);
  }
}

TEST(MorselEdgeCaseTest, RelationSmallerThanOneMorsel) {
  const Sources sources(RunSummary({{7, 2}, {9, 3}}));
  for (const TableSource* source : sources.all()) {
    EXPECT_EQ(Drain(*source, 0, 2, DnfPredicate::True(), 1 << 20),
              (std::vector<Value>{0, 7, 1, 7, 2, 9, 3, 9, 4, 9}))
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
  for (const TableSource* source : sources.all()) {
    EXPECT_EQ(Drain(*source, 0, 2, DnfPredicate::True(), 1), want)
        << SourceName(sources, source);
  }
}

TEST(MorselEdgeCaseTest, MorselRowsNearInt64Max) {
  // Rounding the morsel count up as (rows + morsel_rows - 1) / morsel_rows
  // wraps here, which once planned no morsel and returned 0 for every step.
  ToyEnvironment env = MakeToyEnvironment();
  auto result = HydraRegenerator(env.schema).Regenerate(env.ccs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Sources sources(result->summary);
  const int s = env.schema.RelationIndex("S");
  const int cols = env.schema.relation(s).num_attributes();
  for (const TableSource* source : sources.all()) {
    SCOPED_TRACE(SourceName(sources, source));
    auto want = Executor(env.schema).Execute(env.query, *source);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(AqpSignature(*want),
              (std::vector<std::pair<std::string, uint64_t>>{
                  {"toy_q1/filter(S)", 400},
                  {"toy_q1/filter(T)", 900},
                  {"toy_q1/join0", 50000},
                  {"toy_q1/join1", 30000}}));
    const std::vector<Value> rows = Drain(*source, s, cols);
    ASSERT_EQ(rows.size(), source->RowCount(s) * cols);
    for (const int64_t morsel_rows : {INT64_MAX, INT64_MAX / 2}) {
      for (const int threads : {1, 2}) {
        const ExecOptions exec{threads, morsel_rows};
        SCOPED_TRACE(SettingName(exec));
        const Executor executor(env.schema, exec);
        auto lone = executor.Execute(env.query, *source);
        ASSERT_TRUE(lone.ok()) << lone.status().ToString();
        EXPECT_EQ(PlanText(*lone), PlanText(*want));
        auto batch = executor.ExecuteAll({env.query, env.query}, *source);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        ASSERT_EQ(batch->size(), 2u);
        for (const AnnotatedQueryPlan& plan : *batch) {
          EXPECT_EQ(PlanText(plan), PlanText(*want));
        }
        EXPECT_EQ(Drain(*source, s, cols, DnfPredicate::True(), morsel_rows),
                  rows);
      }
    }
  }
}

TEST(SelectionVectorTest, PushedFilterEdgeCases) {
  // The selection-vector path through ScanFiltered's pushed filter: empty
  // input, no row passes, all pass, and every other row, over default, 1-
  // and 3-row morsels.
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
                           int64_t morsel_rows) {
    return Drain(*source, 0, 2, pred, morsel_rows);
  };
  for (const int64_t rows :
       {ExecOptions{}.morsel_rows, int64_t{1}, int64_t{3}}) {
    for (const TableSource* source : empty.all()) {
      EXPECT_TRUE(
          filtered(source, PredicateOf(AtomRange(1, 0, 100)), rows).empty());
    }
    for (const TableSource* source : sources.all()) {
      SCOPED_TRACE(SourceName(sources, source));
      // No row passes.
      EXPECT_TRUE(
          filtered(source, PredicateOf(AtomRange(1, 500, 600)), rows).empty());
      // All pass: every row survives, in order.
      EXPECT_EQ(filtered(source, PredicateOf(AtomRange(1, 0, 100)), rows),
                all_rows);
      // Alternating: every other row survives.
      EXPECT_EQ(filtered(source, PredicateOf(AtomRange(1, 1, 2)), rows),
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
    auto aqp = Executor(env.schema, ExecOptions{threads, morsel_rows})
                   .Execute(env.query, *source);
    EXPECT_TRUE(aqp.ok()) << aqp.status().ToString();
    return Signature{AqpSignature(*aqp),
                     StreamHash(Drain(*source, s, cols, pred, morsel_rows))};
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

// A ForwardingSource that also counts the block fills of each relation,
// and trips `token` inside the k-th fill (counting from 1) of
// `trip_relation`; k = 0 never trips.
class TrippingSource : public ForwardingSource {
 public:
  TrippingSource(const TableSource& inner, int trip_relation, int64_t k,
                 CancelToken* token)
      : ForwardingSource(inner, /*unprojected=*/false),
        trip_relation_(trip_relation),
        k_(k),
        token_(token) {}

  void FillBlockRange(int relation, int64_t begin, int64_t end,
                      RowBlock* out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++fills_[relation] == k_ && relation == trip_relation_) {
        token_->Cancel();
      }
    }
    ForwardingSource::FillBlockRange(relation, begin, end, out);
  }

  int64_t fills(int relation) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fills_.find(relation);
    return it == fills_.end() ? 0 : it->second;
  }

 private:
  const int trip_relation_;
  const int64_t k_;
  CancelToken* const token_;
  mutable std::mutex mu_;
  mutable std::map<int, int64_t> fills_;
};

// The cancel bound (docs/robustness.md): a lone query walks its root's
// fills on the calling thread and checks the scope before each, so a scope
// that trips inside the k-th root fill stops it after exactly k root
// fills, at any thread count. Over the database the root's 16-rank morsels
// are many, and the scope trips inside the 5th. Over the generator the
// first morsel comes back as run heads and the rest of the root is one
// more fill, so the query makes two root fills, and the scope trips inside
// the first.
TEST(MidQueryCancelTest, RootTripStopsWithinOneMorsel) {
  const TpcdsSources& sources = SharedTpcdsSources();
  const Schema& schema = sources.site.schema;
  const Query& query = sources.site.queries[0];
  const int root = query.tables[0].relation;
  constexpr int64_t kMorselRows = 16;
  for (const TableSource* inner : sources.all()) {
    const bool generated = inner == sources.gen.get();
    const int64_t trip_at = generated ? 1 : 5;
    ASSERT_GT(static_cast<int64_t>(inner->RowCount(root)),
              kMorselRows * (trip_at + 8));
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(sources.Name(inner)) + " at " +
                   std::to_string(threads) + " threads");
      const Executor executor(schema, ExecOptions{threads, kMorselRows});
      CancelToken idle;
      const TrippingSource counted(*inner, root, 0, &idle);
      ASSERT_TRUE(executor.Execute(query, counted).ok());
      if (generated) {
        EXPECT_EQ(counted.fills(root), 2);
      } else {
        EXPECT_GT(counted.fills(root), trip_at + 8);
      }

      CancelToken token;
      const CancelScope scope(&token, Deadline::Infinite());
      const TrippingSource source(*inner, root, trip_at, &token);
      auto aqp = executor.Execute(query, source, &scope);
      EXPECT_EQ(aqp.status().code(), StatusCode::kCancelled)
          << aqp.status().ToString();
      EXPECT_EQ(source.fills(root), trip_at);
    }
  }
}

// A non-root scan runs on the query's thread and checks the scope before
// every fill, so it stops at the fill that tripped it, and the root's
// fills never start. Over the database the scope trips inside the 3rd
// 16-rank morsel; over the generator, whose first fill comes back as run
// heads, inside the first of the scan's two fills.
TEST(MidQueryCancelTest, NonRootTripStopsWithinOneMorsel) {
  const TpcdsSources& sources = SharedTpcdsSources();
  const Schema& schema = sources.site.schema;
  const Query& query = sources.site.queries[0];
  ASSERT_GE(query.tables.size(), 2u);
  const int root = query.tables[0].relation;
  const int scanned = query.tables[1].relation;
  const int width = schema.relation(scanned).num_attributes();
  const int pk = schema.relation(scanned).PrimaryKeyIndex();
  ASSERT_EQ(query.joins[0].pk_table, 1) << "table 1 joins on its PK";
  constexpr int64_t kMorselRows = 16;
  for (const TableSource* inner : sources.all()) {
    const bool generated = inner == sources.gen.get();
    const int64_t trip_at = generated ? 1 : 3;
    ASSERT_GT(static_cast<int64_t>(inner->RowCount(scanned)),
              kMorselRows * (trip_at + 1));
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(sources.Name(inner)) + " at " +
                   std::to_string(threads) + " threads");
      CancelToken idle;
      const TrippingSource counted(*inner, scanned, 0, &idle);
      RowBlock block;
      ASSERT_TRUE(ScanFiltered(counted, scanned, width, DnfPredicate::True(),
                               {pk}, kMorselRows, /*heads=*/true, nullptr,
                               &block)
                      .ok());
      EXPECT_EQ(block.weighted(), generated);
      if (generated) {
        EXPECT_EQ(counted.fills(scanned), 2);
      } else {
        EXPECT_GT(counted.fills(scanned), trip_at + 1);
      }

      CancelToken token;
      const CancelScope scope(&token, Deadline::Infinite());
      const TrippingSource direct(*inner, scanned, trip_at, &token);
      const Status status =
          ScanFiltered(direct, scanned, width, DnfPredicate::True(), {pk},
                       kMorselRows, /*heads=*/true, &scope, &block);
      EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
      EXPECT_EQ(direct.fills(scanned), trip_at);

      CancelToken query_token;
      const CancelScope query_scope(&query_token, Deadline::Infinite());
      const TrippingSource source(*inner, scanned, trip_at, &query_token);
      auto aqp = Executor(schema, ExecOptions{threads, kMorselRows})
                     .Execute(query, source, &query_scope);
      EXPECT_EQ(aqp.status().code(), StatusCode::kCancelled)
          << aqp.status().ToString();
      EXPECT_EQ(source.fills(scanned), trip_at);
      EXPECT_EQ(source.fills(root), 0);
    }
  }
}

}  // namespace
}  // namespace hydra
