#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>

#include "codd/metadata.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "hydra/regenerator.h"
#include "hydra/summary_generator.h"
#include "hydra/summary_io.h"
#include "hydra/tuple_generator.h"
#include "lp/integerize.h"
#include "net/client.h"
#include "net/net_server.h"
#include "serve/server.h"
#include "storage/disk_table.h"
#include "workload/datagen.h"
#include "workload/workload_runner.h"

namespace perfbench {

using hydra::Status;
using hydra::StatusOr;

namespace {

using namespace hydra;

double SecondsBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

// CPU time of every thread of the process so far.
double ProcessCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Thread-safe operation accounting (RunReport's attempted/failed rule).
class Ops {
 public:
  // Records one call; returns whether it succeeded.
  bool Call(const Status& status, const std::string& what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (status.ok()) return true;
    failed_.fetch_add(1, std::memory_order_relaxed);
    Note(what + ": " + status.ToString());
    return false;
  }
  // Records one output check; returns whether it passed.
  bool Check(bool passed, const std::string& what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (passed) return true;
    failed_.fetch_add(1, std::memory_order_relaxed);
    checks_failed_.fetch_add(1, std::memory_order_relaxed);
    Note("output check failed: " + what);
    return false;
  }
  void FillReport(RunReport* report) const {
    report->attempted = attempted_.load();
    report->failed = failed_.load();
    report->checks_failed = checks_failed_.load();
    std::lock_guard<std::mutex> lock(mu_);
    report->failures = failures_;
  }

 private:
  void Note(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 8) failures_.push_back(std::move(message));
  }

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> checks_failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------- samples ----

struct Samples {
  std::map<std::string, std::vector<double>> by_name;
  void Add(const std::string& name, double v) { by_name[name].push_back(v); }
  const std::vector<double>& Get(const std::string& name) {
    return by_name[name];
  }
};

void AddMetric(RunReport* report, const std::string& name, double value,
               const std::string& unit, uint64_t samples) {
  report->metrics.push_back(Metric{name, value, unit, samples});
}

// An end-to-end metric with no samples is left out of the report, so that a
// run whose calls all failed reports it missing rather than as 0.
void AddMeasured(RunReport* report, const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (samples > 0) AddMetric(report, name, value, unit, samples);
}

void AddMedian(RunReport* report, Samples& s, const std::string& sample,
               const std::string& name, const std::string& unit) {
  const std::vector<double>& v = s.Get(sample);
  if (v.empty()) return;
  const double median = Median(v);
  const std::array<double, 3> q = Quartiles(v);
  report->metrics.push_back(
      Metric{name, median, unit, v.size(),
             median > 0 ? (q[2] - q[0]) / median : 0});
}

// ------------------------------------------------------------- hashing ----

constexpr uint64_t kHashSeed = 14695981039346656037ull;

inline uint64_t Mix(uint64_t h, Value v) {
  return (h ^ static_cast<uint64_t>(v)) * 1099511628211ull;
}

// Order-dependent hash over the row-major sequence of a two-column stream.
uint64_t HashPairs(uint64_t h, const Value* c0, const Value* c1, int64_t n) {
  for (int64_t i = 0; i < n; ++i) h = Mix(Mix(h, c0[i]), c1[i]);
  return h;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The summary's serialized bytes (WriteSummary's format).
StatusOr<std::string> SummaryBytes(const DatabaseSummary& summary,
                                   const std::string& path) {
  HYDRA_RETURN_IF_ERROR(WriteSummary(summary, path).status());
  return ReadFile(path);
}

uint64_t SummaryRows(const DatabaseSummary& summary) {
  uint64_t rows = 0;
  for (const RelationSummary& rs : summary.relations) rows += rs.rows.size();
  return rows;
}

// Compares every `<relation>.tbl` under `dir` with an oracle filled by
// TupleGenerator::FillRange. Returns an empty string on a match, else what
// differed.
std::string CheckTablesAgainstOracle(const DatabaseSummary& summary,
                                     const std::string& dir) {
  const TupleGenerator gen(summary);
  const Schema& schema = summary.schema;
  constexpr int64_t kChunkRows = 1 << 15;
  std::vector<Value> oracle;
  std::vector<Value> file_rows;
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    const std::string path = dir + "/" + rel.name() + ".tbl";
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return "missing " + path;
    uint64_t header[3] = {0, 0, 0};
    const int64_t rows = static_cast<int64_t>(gen.RowCount(r));
    const int width = rel.num_attributes();
    std::string error;
    if (std::fread(header, sizeof(header), 1, f) != 1 ||
        header[1] != static_cast<uint64_t>(width) ||
        header[2] != static_cast<uint64_t>(rows)) {
      error = "bad header in " + path;
    }
    for (int64_t b = 0; error.empty() && b < rows; b += kChunkRows) {
      const int64_t n = std::min(kChunkRows, rows - b);
      oracle.resize(n * width);
      file_rows.resize(n * width);
      gen.FillRange(r, b, b + n, oracle.data());
      if (std::fread(file_rows.data(), sizeof(Value) * width, n, f) !=
              static_cast<size_t>(n) ||
          std::memcmp(oracle.data(), file_rows.data(),
                      sizeof(Value) * width * n) != 0) {
        error = path + " differs from the oracle near row " +
                std::to_string(b);
      }
    }
    if (error.empty() && std::fgetc(f) != EOF) {
      error = path + " has trailing bytes";
    }
    std::fclose(f);
    if (!error.empty()) return error;
  }
  return "";
}

// Byte comparison of the same relation files under two directories.
std::string CompareTableDirs(const Schema& schema, const std::string& a,
                             const std::string& b) {
  constexpr size_t kChunk = 1 << 20;
  std::vector<char> x(kChunk), y(kChunk);
  for (int r = 0; r < schema.num_relations(); ++r) {
    const std::string name = schema.relation(r).name() + ".tbl";
    std::ifstream fa(a + "/" + name, std::ios::binary);
    std::ifstream fb(b + "/" + name, std::ios::binary);
    if (!fa || !fb) return "missing " + name;
    for (;;) {
      fa.read(x.data(), kChunk);
      fb.read(y.data(), kChunk);
      if (fa.gcount() != fb.gcount() ||
          std::memcmp(x.data(), y.data(), fa.gcount()) != 0) {
        return name + " differs";
      }
      if (fa.gcount() < static_cast<std::streamsize>(kChunk)) break;
    }
  }
  return "";
}

// --------------------------------------------------- forwarding source ----

// Forwards a TableSource and measures the generator's share of a query:
// rows produced, and (traced) one span per FillBlockRange call. The engine
// reads sources only through RowCount and FillBlockRange; the row-callback
// entry points forward untimed because their callbacks run engine code.
class ObservedSource : public TableSource {
 public:
  ObservedSource(const TableSource& inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  void set_parent(uint64_t parent, int64_t iteration) {
    parent_.store(parent, std::memory_order_relaxed);
    iteration_.store(iteration, std::memory_order_relaxed);
  }
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }

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
    ScopedSpan span(rec_, "hydra.query_gen",
                    parent_.load(std::memory_order_relaxed),
                    iteration_.load(std::memory_order_relaxed));
    inner_.FillBlockRange(relation, begin, end, out);
    rows_.fetch_add(static_cast<uint64_t>(end - begin),
                    std::memory_order_relaxed);
  }

 private:
  const TableSource& inner_;
  SpanRecorder* rec_;
  std::atomic<uint64_t> parent_{0};
  std::atomic<int64_t> iteration_{-1};
  mutable std::atomic<uint64_t> rows_{0};
};

// ------------------------------------------------------------ client site --

// The client site: BuildClientSite untraced; traced, the same steps with a
// span around GenerateClientDatabase and around each query's Execute +
// AqpToConstraints.
StatusOr<ClientSite> BuildSite(const WorkloadConfig& config, uint64_t seed,
                               SpanRecorder* rec, uint64_t parent) {
  const Schema schema = TpcdsSchema(config.scale_factor);
  std::vector<Query> queries = TpcdsWorkload(
      schema, config.kind, config.num_queries, config.query_seed);
  const DataGenOptions datagen{.seed = seed};
  if (rec == nullptr) {
    return BuildClientSite(schema, datagen, std::move(queries));
  }
  ClientSite site{schema, Database(schema), std::move(queries), {}, {}};
  {
    ScopedSpan span(rec, "workload.datagen", parent, -1);
    HYDRA_ASSIGN_OR_RETURN(site.database,
                           GenerateClientDatabase(schema, datagen));
  }
  for (int r = 0; r < schema.num_relations(); ++r) {
    site.ccs.push_back(RelationSizeConstraint(
        r, site.database.RowCount(r), "|" + schema.relation(r).name() + "|"));
  }
  Executor executor(site.schema);
  for (const Query& q : site.queries) {
    ScopedSpan span(rec, "engine.aqp_collect", parent, -1);
    HYDRA_ASSIGN_OR_RETURN(AnnotatedQueryPlan aqp,
                           executor.Execute(q, site.database));
    std::vector<CardinalityConstraint> ccs = AqpToConstraints(aqp);
    site.ccs.insert(site.ccs.end(), ccs.begin(), ccs.end());
    site.aqps.push_back(std::move(aqp));
  }
  return site;
}

// ------------------------------------------------- traced regeneration ----

struct RegenCounts {
  uint64_t variables = 0;
  uint64_t pivots = 0;
  uint64_t residual_rows = 0;
  uint64_t warm_accepted = 0;
  uint64_t warm_eligible = 0;  // views with a chain predecessor

  void Add(const RegenCounts& o) {
    variables += o.variables;
    pivots += o.pivots;
    residual_rows += o.residual_rows;
    warm_accepted += o.warm_accepted;
    warm_eligible += o.warm_eligible;
  }
};

// HydraRegenerator::Regenerate's stages, in its order and at its thread
// count, with a span around every layer call: preprocess, formulate every
// view in parallel, then solve warm-start chains grouped by LP signature in
// parallel (solve, integerize, view summary), then the database summary.
StatusOr<DatabaseSummary> TracedRegenerate(
    const Schema& schema, const std::vector<CardinalityConstraint>& ccs,
    SpanRecorder* rec, uint64_t parent, int64_t iter, RegenCounts* counts) {
  const HydraOptions options;  // the defaults Regenerate runs with
  Preprocessor pre(schema);
  std::vector<View> views;
  std::vector<std::vector<ViewConstraint>> view_constraints;
  {
    ScopedSpan span(rec, "hydra.preprocess", parent, iter);
    HYDRA_ASSIGN_OR_RETURN(views, pre.BuildViews());
    HYDRA_ASSIGN_OR_RETURN(view_constraints, pre.MapConstraints(views, ccs));
  }
  SummaryGenerator generator(schema);
  const int num_views = static_cast<int>(views.size());
  std::vector<ViewSummary> summaries(num_views);
  std::vector<Status> statuses(num_views, Status::OK());
  std::vector<ViewLp> lps(num_views);
  std::vector<RegenCounts> per_view(num_views);
  const int pool_threads = std::min(
      num_views == 0 ? 1 : num_views,
      options.num_threads > 0 ? options.num_threads
                              : ThreadPool::DefaultThreads());
  ThreadPool pool(pool_threads);
  {
    ScopedSpan stage(rec, "hydra.formulate_stage", parent, iter);
    ParallelFor(pool, num_views, [&](int v) {
      ScopedSpan span(rec, "hydra.formulate", stage.id(), iter);
      auto lp = FormulateViewLp(views[v], view_constraints[v]);
      if (!lp.ok()) {
        statuses[v] = lp.status();
        return;
      }
      lps[v] = *std::move(lp);
    });
  }
  for (const Status& s : statuses) HYDRA_RETURN_IF_ERROR(s);

  std::vector<std::vector<int>> chains;
  if (options.warm_start) {
    std::map<std::tuple<int, int, uint64_t>, int> chain_of;
    for (int v = 0; v < num_views; ++v) {
      const auto key = std::make_tuple(lps[v].problem.num_constraints(),
                                       lps[v].problem.num_vars(),
                                       lps[v].problem.NumNonZeros());
      const auto [it, inserted] =
          chain_of.emplace(key, static_cast<int>(chains.size()));
      if (inserted) chains.emplace_back();
      chains[it->second].push_back(v);
    }
  } else {
    chains.resize(num_views);
    for (int v = 0; v < num_views; ++v) chains[v] = {v};
  }

  {
    ScopedSpan stage(rec, "hydra.solve_stage", parent, iter);
    ParallelFor(pool, static_cast<int>(chains.size()), [&](int c) {
      SimplexBasis prev;
      for (int v : chains[c]) {
        if (!statuses[v].ok()) return;
        SimplexOptions simplex = options.simplex;
        SimplexBasis exported;
        if (options.warm_start) {
          simplex.warm_start = prev.empty() ? nullptr : &prev;
          simplex.export_basis = &exported;
        }
        const bool has_predecessor = v != chains[c].front();
        StatusOr<LpSolution> solution = Status::Internal("not solved");
        {
          ScopedSpan span(rec, "lp.solve", stage.id(), iter);
          solution = SolveFeasibility(lps[v].problem, simplex);
        }
        if (!solution.ok()) {
          statuses[v] = solution.status();
          return;
        }
        IntegerizeResult integers;
        {
          ScopedSpan span(rec, "lp.integerize", stage.id(), iter);
          integers = IntegerizeSolution(lps[v].problem, solution->values,
                                        options.integerize_passes);
        }
        StatusOr<ViewSummary> summary = Status::Internal("not built");
        {
          ScopedSpan span(rec, "hydra.summary_build", stage.id(), iter);
          summary = generator.BuildViewSummary(views[v], lps[v],
                                               integers.values);
        }
        if (!summary.ok()) {
          statuses[v] = summary.status();
          return;
        }
        summaries[v] = *std::move(summary);
        RegenCounts& k = per_view[v];
        k.variables = lps[v].problem.num_vars();
        k.pivots = static_cast<uint64_t>(solution->iterations);
        k.residual_rows =
            static_cast<uint64_t>(integers.max_absolute_violation);
        k.warm_eligible = has_predecessor ? 1 : 0;
        k.warm_accepted = has_predecessor && solution->warm_started ? 1 : 0;
        prev = std::move(exported);
      }
    });
  }
  for (const Status& s : statuses) HYDRA_RETURN_IF_ERROR(s);
  for (const RegenCounts& k : per_view) counts->Add(k);
  ScopedSpan span(rec, "hydra.summary_build", parent, iter);
  return generator.BuildDatabaseSummary(views, std::move(summaries));
}

// ------------------------------------------------ traced materialization --

// MaterializeToDisk's steps at its default GenerationOptions, with spans
// around the writer calls and around each shard's block generation (whose
// span self time is then generation alone). Returns the bytes written.
StatusOr<uint64_t> TracedMaterialize(const DatabaseSummary& summary,
                                     const std::string& dir,
                                     SpanRecorder* rec, uint64_t parent,
                                     int64_t iter) {
  const GenerationOptions options;
  const TupleGenerator gen(summary);
  const Schema& schema = summary.schema;
  std::vector<std::string> paths(schema.num_relations());
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    paths[r] = dir + "/" + rel.name() + ".tbl";
    ScopedSpan span(rec, "storage.preallocate", parent, iter);
    HYDRA_RETURN_IF_ERROR(
        PreallocateDiskTable(paths[r], rel.num_attributes()));
  }
  struct Shard {
    int relation;
    int64_t begin, end;
  };
  std::vector<Shard> shards;
  for (int r = 0; r < schema.num_relations(); ++r) {
    const int64_t rows = summary.relations[r].TotalCount();
    for (int64_t b = 0; b < rows; b += options.shard_rows) {
      shards.push_back({r, b, std::min(rows, b + options.shard_rows)});
    }
  }
  const int threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                               : options.num_threads;
  ThreadPool pool(
      std::max(1, std::min<int>(threads, static_cast<int>(shards.size()))));
  std::vector<Status> statuses(shards.size(), Status::OK());
  {
    ScopedSpan stage(rec, "hydra.materialize_stage", parent, iter);
    ParallelFor(pool, static_cast<int>(shards.size()), [&](int i) {
      const Shard& s = shards[i];
      DiskTableWriter writer(paths[s.relation],
                             schema.relation(s.relation).num_attributes());
      Status status;
      {
        ScopedSpan span(rec, "storage.open", stage.id(), iter);
        status = writer.OpenShard(s.begin);
      }
      if (status.ok()) {
        ScopedSpan gen_span(rec, "hydra.materialize_gen", stage.id(), iter);
        gen.ScanBlocksRange(s.relation, s.begin, s.end, options.block_rows,
                            [&](const Value* rows, int64_t n) {
                              if (!status.ok()) return;
                              ScopedSpan span(rec, "storage.append",
                                              gen_span.id(), iter);
                              status = writer.AppendBlock(rows, n);
                            });
      }
      {
        ScopedSpan span(rec, "storage.close", stage.id(), iter);
        const Status close_status = writer.Close();
        if (status.ok()) status = close_status;
      }
      statuses[i] = status;
    });
  }
  for (const Status& s : statuses) HYDRA_RETURN_IF_ERROR(s);
  uint64_t total_bytes = 0;
  ScopedSpan span(rec, "storage.finalize", parent, iter);
  for (int r = 0; r < schema.num_relations(); ++r) {
    HYDRA_RETURN_IF_ERROR(FinalizeDiskTable(
        paths[r], schema.relation(r).num_attributes(), gen.RowCount(r)));
    HYDRA_ASSIGN_OR_RETURN(const uint64_t bytes, DiskTableBytes(paths[r]));
    total_bytes += bytes;
  }
  return total_bytes;
}

// ------------------------------------------------------------ query step --

struct QueryStep {
  std::vector<uint64_t> vendor;  // SimilarityReport vendor cardinalities
  uint64_t exact = 0;
  uint64_t abs_err_rows = 0;
  uint64_t rows_generated = 0;
  uint64_t rows_passing_leaf_filters = 0;
};

void Score(const ClientSite& site, QueryStep* step) {
  std::vector<uint64_t> client;
  for (int r = 0; r < site.schema.num_relations(); ++r) {
    client.push_back(site.database.RowCount(r));
  }
  for (const AnnotatedQueryPlan& aqp : site.aqps) {
    for (const AqpStep& s : aqp.steps) client.push_back(s.cardinality);
  }
  for (size_t i = 0; i < client.size() && i < step->vendor.size(); ++i) {
    const uint64_t want = client[i], got = step->vendor[i];
    if (want == got) ++step->exact;
    step->abs_err_rows += want > got ? want - got : got - want;
  }
}

// MeasureVolumetricSimilarity over the generator (through ObservedSource,
// which counts the rows generated).
StatusOr<QueryStep> RunQueryStep(const ClientSite& site,
                                 const TupleGenerator& gen) {
  ObservedSource source(gen, nullptr);
  HYDRA_ASSIGN_OR_RETURN(SimilarityReport report,
                         MeasureVolumetricSimilarity(site, source));
  QueryStep step;
  for (const SimilarityEntry& e : report.entries) {
    step.vendor.push_back(e.vendor_cardinality);
  }
  step.rows_generated = source.rows();
  Score(site, &step);
  return step;
}

// MeasureVolumetricSimilarity's steps with a span around each Execute and
// (inside ObservedSource) around each generator call.
StatusOr<QueryStep> TracedQueryStep(const ClientSite& site,
                                    const TupleGenerator& gen,
                                    SpanRecorder* rec, uint64_t parent,
                                    int64_t iter) {
  ObservedSource source(gen, rec);
  QueryStep step;
  for (int r = 0; r < site.schema.num_relations(); ++r) {
    step.vendor.push_back(source.RowCount(r));
  }
  Executor executor(site.schema);
  for (const Query& q : site.queries) {
    ScopedSpan span(rec, "engine.execute", parent, iter);
    source.set_parent(span.id(), iter);
    HYDRA_ASSIGN_OR_RETURN(AnnotatedQueryPlan aqp,
                           executor.Execute(q, source));
    size_t next_step = 0;
    for (const QueryTable& qt : q.tables) {
      if (qt.filter.IsTrue()) {
        step.rows_passing_leaf_filters += source.RowCount(qt.relation);
      } else if (next_step < aqp.steps.size()) {
        step.rows_passing_leaf_filters += aqp.steps[next_step++].cardinality;
      }
    }
    for (const AqpStep& s : aqp.steps) step.vendor.push_back(s.cardinality);
  }
  step.rows_generated = source.rows();
  Score(site, &step);
  return step;
}

// ------------------------------------------------------- metric registry --

struct HistogramWindow {
  uint64_t count = 0;
  uint64_t sum = 0;
  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

std::map<std::string, HistogramWindow> HistogramTotals() {
  std::map<std::string, HistogramWindow> out;
  for (const HistogramSnapshot& h : MetricRegistry::Snapshot().histograms) {
    out[h.name] = HistogramWindow{h.count, h.sum};
  }
  return out;
}

std::map<std::string, HistogramWindow> HistogramDiff(
    const std::map<std::string, HistogramWindow>& before,
    const std::map<std::string, HistogramWindow>& after) {
  std::map<std::string, HistogramWindow> out;
  for (const auto& [name, a] : after) {
    auto it = before.find(name);
    const HistogramWindow b =
        it == before.end() ? HistogramWindow{} : it->second;
    out[name] = HistogramWindow{a.count - b.count, a.sum - b.sum};
  }
  return out;
}

std::map<int64_t, std::vector<Span>> SpansByIteration(
    const SpanRecorder& rec) {
  std::map<int64_t, std::vector<Span>> out;
  for (Span& s : rec.Spans()) out[s.iteration].push_back(std::move(s));
  return out;
}

// Per-layer values measured by a traced run, keyed by metric name.
using LayerValues = std::map<std::string, Metric>;

void Put(LayerValues* v, const std::string& name, double value,
         uint64_t samples) {
  (*v)[name] = Metric{name, value, "", samples};
}

// Every workload prints this list, with 0 where it never enters a layer.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"workload.datagen_s", "s"},
    {"engine.aqp_collect_s", "s"},
    {"hydra.preprocess_s", "s"},
    {"hydra.formulate_s", "s"},
    {"lp.solve_s", "s"},
    {"lp.pivots", "count"},
    {"lp.variables", "count"},
    {"lp.refactorizations", "count"},
    {"lp.warm_start_frac", "fraction"},
    {"lp.integerize_s", "s"},
    {"lp.residual_rows", "rows"},
    {"hydra.summary_build_s", "s"},
    {"hydra.summary_rows", "count"},
    {"hydra.materialize_gen_s", "s"},
    {"storage.write_s", "s"},
    {"storage.bytes_per_row", "B"},
    {"hydra.query_gen_s", "s"},
    {"engine.query_self_s", "s"},
    {"engine.scan_yield", "fraction"},
    {"net.dispatch_wait_us", "us"},
    {"net.handle_us", "us"},
    {"net.write_us", "us"},
    {"net.client_other_us", "us"},
    {"serve.next_batch_us", "us"},
    {"serve.admission_wait_us", "us"},
    {"serve.admission_wait_frac", "fraction"},
    {"hydra.fill_us", "us"},
    {"serve.shared_hit_frac", "fraction"},
    {"serve.catch_up_frac", "fraction"},
    {"serve.coresident.shared_hit_frac", "fraction"},
    {"serve.coresident.catch_up_frac", "fraction"},
    {"serve.disjoint.shared_hit_frac", "fraction"},
    {"serve.disjoint.catch_up_frac", "fraction"},
    {"serve.coresident.pacing_waits", "count"},
    {"serve.filter_yield", "fraction"},
    {"serve.failed", "count"},
    {"net.failed", "count"},
};

// The set-up's client database generation and AQP collection.
void PutSetup(const std::vector<Span>& setup_spans, LayerValues* v) {
  double datagen = 0, aqp = 0;
  uint64_t queries = 0;
  for (const Span& s : setup_spans) {
    if (s.name == "workload.datagen") {
      datagen += SecondsBetween(s.start_ns, s.end_ns);
    } else if (s.name == "engine.aqp_collect") {
      aqp += SecondsBetween(s.start_ns, s.end_ns);
      ++queries;
    }
  }
  Put(v, "workload.datagen_s", datagen, 1);
  Put(v, "engine.aqp_collect_s", aqp, queries);
}

// Regeneration layers, per regeneration: `acc` covers the traced
// regenerations and `counts` sums their counters.
void PutRegeneration(const SpanAccounting& acc, const RegenCounts& counts,
                     uint64_t refactorizations, uint64_t summary_rows,
                     LayerValues* v) {
  const uint64_t k = acc.iterations;
  const double n = std::max(1, acc.iterations);
  Put(v, "hydra.preprocess_s", acc.MeanName("hydra.preprocess"), k);
  Put(v, "hydra.formulate_s", acc.MeanName("hydra.formulate"), k);
  Put(v, "lp.solve_s", acc.MeanName("lp.solve"), k);
  Put(v, "lp.pivots", counts.pivots / n, k);
  Put(v, "lp.variables", counts.variables / n, k);
  Put(v, "lp.refactorizations", refactorizations / n, k);
  Put(v, "lp.warm_start_frac",
      counts.warm_eligible == 0
          ? 0
          : static_cast<double>(counts.warm_accepted) / counts.warm_eligible,
      counts.warm_eligible);
  Put(v, "lp.integerize_s", acc.MeanName("lp.integerize"), k);
  Put(v, "lp.residual_rows", counts.residual_rows / n, k);
  Put(v, "hydra.summary_build_s", acc.MeanName("hydra.summary_build"), k);
  Put(v, "hydra.summary_rows", static_cast<double>(summary_rows), 1);
}

// Means of the registry's latency histograms over the timed window.
void PutHistograms(const std::map<std::string, HistogramWindow>& hist,
                   LayerValues* v) {
  const std::pair<const char*, const char*> means[] = {
      {"net.dispatch_wait_us", "net/dispatch_wait_us"},
      {"net.handle_us", "net/handle_us"},
      {"net.write_us", "net/write_us"},
      {"serve.next_batch_us", "serve/next_batch_us"},
      {"serve.admission_wait_us", "serve/admission_wait_us"},
      {"hydra.fill_us", "gen/fill_us"},
  };
  for (const auto& [metric, histogram] : means) {
    auto it = hist.find(histogram);
    if (it != hist.end()) {
      Put(v, metric, it->second.MeanUs(), it->second.count);
    }
  }
}

// The layers of a timed iteration's breakdown, in pipeline order ("workload"
// runs only in set-up); "bench" is the benchmark's own time between calls
// (bench.unaccounted_s).
const char* const kLayers[] = {"hydra",  "lp",    "storage",
                               "engine", "serve", "net"};

void EmitPerLayer(const LayerValues& values, const SpanAccounting& acc,
                  double untraced_median_s, double traced_median_s,
                  RunReport* report) {
  for (const auto& [name, unit] : kPerLayer) {
    auto it = values.find(name);
    AddMetric(report, name, it == values.end() ? 0 : it->second.value, unit,
              it == values.end() ? 0 : it->second.samples);
  }
  const double n = std::max(1, acc.iterations);
  double layers_sum = 0;
  for (const char* layer : kLayers) {
    auto it = acc.by_layer.find(layer);
    const double v = it == acc.by_layer.end() ? 0 : it->second / n;
    layers_sum += v;
    AddMetric(report, std::string("layer.") + layer + "_s", v, "s",
              acc.iterations);
  }
  auto bench = acc.by_layer.find("bench");
  const double unaccounted =
      bench == acc.by_layer.end() ? 0 : bench->second / n;
  AddMetric(report, "bench.unaccounted_s", unaccounted, "s", acc.iterations);
  AddMetric(report, "bench.traced_wall_s", acc.wall / n, "s", acc.iterations);
  AddMetric(report, "bench.layer_sum_error_s",
            acc.wall / n - layers_sum - unaccounted, "s", acc.iterations);
  AddMetric(report, "bench.trace_overhead_frac",
            untraced_median_s > 0
                ? (traced_median_s - untraced_median_s) / untraced_median_s
                : 0,
            "fraction", acc.iterations);
}

// Accounts every traced tree of `by_iter` whose iteration id is >= 0.
SpanAccounting AccountIterations(
    const std::map<int64_t, std::vector<Span>>& by_iter) {
  SpanAccounting acc;
  for (const auto& [iteration, spans] : by_iter) {
    if (iteration < 0) continue;
    for (const Span& s : spans) {
      if (s.parent == 0) {
        acc.AddIteration(spans, s.id);
        break;
      }
    }
  }
  return acc;
}

}  // namespace

StatusOr<WorkloadConfig> BenchmarkConfig(const std::string& name,
                                         const std::string& work_dir) {
  WorkloadConfig c;
  c.work_dir = work_dir;
  if (name == "regen_wlc") {
    c.scale_factor = 4;
    c.kind = TpcdsWorkloadKind::kComplex;
    c.num_queries = 200;
    c.query_seed = 424242;
  } else if (name == "materialize_wls") {
    c.scale_factor = 32;
    c.kind = TpcdsWorkloadKind::kSimple;
    c.num_queries = 60;
    c.query_seed = 515151;
    c.materialize = true;
  } else if (name == "serve_wire") {
    c.scale_factor = 4;
    c.kind = TpcdsWorkloadKind::kComplex;
    c.num_queries = 200;
    c.query_seed = 424242;
    c.codd_factor = 8;
    c.serve = true;
  } else {
    return Status::NotFound("unknown workload " + name);
  }
  return c;
}

namespace {

// ----------------------------------------- regen_wlc / materialize_wls ----

StatusOr<RunReport> RunRegeneration(const WorkloadConfig& config,
                                    uint64_t seed, double seconds,
                                    SpanRecorder* rec) {
  RunReport report;
  Ops ops;
  Samples samples;
  const bool traced = rec != nullptr;

  // Set-up: build the client site config.setups times; time each.
  std::unique_ptr<ClientSite> site;
  for (int s = 0; s < config.setups; ++s) {
    site.reset();  // one site in memory at a time
    const int64_t t0 = NowNs();
    ScopedSpan span(s + 1 == config.setups ? rec : nullptr, "bench.setup", 0,
                    -1);
    HYDRA_ASSIGN_OR_RETURN(ClientSite built,
                           BuildSite(config, seed,
                                     s + 1 == config.setups ? rec : nullptr,
                                     span.id()));
    site = std::make_unique<ClientSite>(std::move(built));
    samples.Add("setup", SecondsBetween(t0, NowNs()));
  }
  site->ccs.insert(site->ccs.end(), config.extra_ccs.begin(),
                   config.extra_ccs.end());
  report.notes.push_back(
      "inputs: TPC-DS schema sf=" + std::to_string(config.scale_factor) +
      ", " + std::to_string(config.num_queries) +
      (config.kind == TpcdsWorkloadKind::kComplex ? " WLc" : " WLs") +
      " queries (query seed " + std::to_string(config.query_seed) +
      "), client database seed " + std::to_string(seed) + ", " +
      std::to_string(site->ccs.size()) + " CCs");
  if (config.materialize) {
    report.notes.push_back(
        "flush policy: MaterializeToDisk defaults (buffered stdio writes, "
        "no fsync); tables are rewritten into one reused directory");
  }

  const HydraRegenerator hydra(site->schema);
  const std::string summary_path = config.work_dir + "/summary.bin";
  const std::string traced_summary_path = config.work_dir + "/traced.bin";
  const std::string table_dir = config.work_dir + "/tables";
  const std::string traced_table_dir = config.work_dir + "/traced_tables";

  std::string first_summary;
  std::vector<uint64_t> first_vendor;
  QueryStep quality;
  uint64_t summary_bytes = 0, summary_rows = 0, table_rows = 0;
  uint64_t summaries = 0;  // successful Regenerate calls
  uint64_t table_bytes = 0;
  uint64_t lp_variables = 0;

  // Traced-run accumulators.
  RegenCounts counts_total;
  uint64_t refactorizations = 0;
  uint64_t rows_generated = 0, rows_passing = 0;
  std::vector<double> untraced_iter, traced_iter;
  bool tables_valid = false;  // table_dir holds a complete materialization

  const auto hist_before = HistogramTotals();
  const int64_t start = NowNs();
  for (int64_t it = 0;; ++it) {
    const bool timed_out = SecondsBetween(start, NowNs()) >= seconds;
    if (timed_out && it >= config.min_iterations * (traced ? 2 : 1)) break;
    // The traced run alternates untraced and traced iterations.
    const bool trace_this = traced && it % 2 == 1;

    if (!trace_this) {
      const double c0 = ProcessCpuSeconds();
      const int64_t t0 = NowNs();
      auto result = hydra.Regenerate(site->ccs);
      const int64_t t1 = NowNs();
      double cpu = ProcessCpuSeconds() - c0;
      if (!ops.Call(result.status(), "Regenerate")) continue;
      samples.Add("regen", SecondsBetween(t0, t1));
      if (++summaries == 1) {
        summary_bytes = result->summary.ByteSize();
        summary_rows = SummaryRows(result->summary);
        lp_variables = result->TotalLpVariables();
        for (const auto& rs : result->summary.relations) {
          table_rows += static_cast<uint64_t>(rs.TotalCount());
        }
      }
      int64_t t_mat = 0;
      bool materialized = false;
      if (config.materialize) {
        const double cm = ProcessCpuSeconds();
        const int64_t m0 = NowNs();
        auto bytes = hydra.MaterializeToDisk(result->summary, table_dir);
        t_mat = NowNs() - m0;
        cpu += ProcessCpuSeconds() - cm;
        materialized = ops.Call(bytes.status(), "MaterializeToDisk");
        if (materialized) {
          samples.Add("materialize", static_cast<double>(t_mat) / 1e9);
          table_bytes = *bytes;
        }
      }
      const double cq = ProcessCpuSeconds();
      const int64_t q0 = NowNs();
      TupleGenerator gen(result->summary);
      auto step = RunQueryStep(*site, gen);
      const int64_t q1 = NowNs();
      cpu += ProcessCpuSeconds() - cq;
      if (ops.Call(step.status(), "MeasureVolumetricSimilarity")) {
        samples.Add("query", SecondsBetween(q0, q1));
        if (materialized || !config.materialize) {
          const double iter = SecondsBetween(t0, t1) +
                              static_cast<double>(t_mat) / 1e9 +
                              SecondsBetween(q0, q1);
          samples.Add("cpu", cpu);
          untraced_iter.push_back(iter);
        }
      }
      tables_valid = materialized;

      // Output checks (untimed).
      auto bytes = SummaryBytes(result->summary, summary_path);
      if (ops.Call(bytes.status(), "WriteSummary")) {
        if (first_summary.empty()) {
          first_summary = *bytes;
        } else {
          ops.Check(*bytes == first_summary,
                    "summary of iteration " + std::to_string(it) +
                        " is not byte-identical to the first");
        }
      }
      if (materialized) {
        const std::string diff =
            CheckTablesAgainstOracle(result->summary, table_dir);
        ops.Check(diff.empty(), diff);
      }
      if (step.ok()) {
        if (first_vendor.empty()) {
          first_vendor = step->vendor;
          quality = *step;
        } else {
          ops.Check(step->vendor == first_vendor,
                    "query-step cardinalities of iteration " +
                        std::to_string(it) + " differ from the first");
        }
      }
      continue;
    }

    // Traced iteration: the same work, stage by stage.
    const Histogram* refactor = MetricRegistry::FindHistogram(
        "lp/refactorize_us");
    const uint64_t refactor_before = refactor ? refactor->count() : 0;
    const int64_t t0 = NowNs();
    StatusOr<DatabaseSummary> summary = Status::Internal("not run");
    RegenCounts counts;
    StatusOr<QueryStep> step = Status::Internal("not run");
    StatusOr<uint64_t> mat = Status::Internal("not run");
    {
      ScopedSpan root(rec, "bench.iteration", 0, it);
      summary =
          TracedRegenerate(site->schema, site->ccs, rec, root.id(), it,
                           &counts);
      if (summary.ok()) {
        if (config.materialize) {
          mat = TracedMaterialize(*summary, traced_table_dir, rec, root.id(),
                                  it);
        }
        TupleGenerator gen(*summary);
        step = TracedQueryStep(*site, gen, rec, root.id(), it);
      }
    }
    const int64_t t1 = NowNs();
    if (!ops.Call(summary.status(), "traced Regenerate")) continue;
    if (config.materialize) ops.Call(mat.status(), "traced MaterializeToDisk");
    if (!ops.Call(step.status(), "traced query step")) continue;
    traced_iter.push_back(SecondsBetween(t0, t1));
    refactorizations += (refactor ? refactor->count() : 0) - refactor_before;
    counts_total.Add(counts);
    rows_generated += step->rows_generated;
    rows_passing += step->rows_passing_leaf_filters;

    // The traced pipeline must produce what the public calls produce.
    auto bytes = SummaryBytes(*summary, traced_summary_path);
    if (ops.Call(bytes.status(), "WriteSummary") && !first_summary.empty()) {
      ops.Check(*bytes == first_summary,
                "traced summary is not byte-identical to Regenerate's");
    }
    if (config.materialize && mat.ok() && tables_valid) {
      const std::string diff =
          CompareTableDirs(summary->schema, table_dir, traced_table_dir);
      ops.Check(diff.empty(),
                "traced materialization vs MaterializeToDisk: " + diff);
    }
    if (!first_vendor.empty()) {
      ops.Check(step->vendor == first_vendor,
                "traced query step differs from MeasureVolumetricSimilarity");
    }
  }
  ops.FillReport(&report);

  if (!traced) {
    AddMedian(&report, samples, "setup", "setup_s", "s");
    AddMedian(&report, samples, "cpu", "cpu_s", "s");
    AddMedian(&report, samples, "regen", "regen_s", "s");
    AddMedian(&report, samples, "query", "query_s", "s");
    if (config.materialize) {
      const std::vector<double>& m = samples.Get("materialize");
      AddMeasured(&report, "materialize_rows_per_s",
                  static_cast<double>(table_rows) / Median(m), "rows/s",
                  m.size());
    }
    const uint64_t ccs = first_vendor.size();
    AddMeasured(&report, "cc_exact_frac",
                static_cast<double>(quality.exact) / std::max<uint64_t>(1, ccs),
                "fraction", ccs);
    AddMeasured(&report, "cc_abs_err_rows",
                static_cast<double>(quality.abs_err_rows), "rows", ccs);
    AddMeasured(&report, "summary_bytes", static_cast<double>(summary_bytes),
                "B", summaries);
    AddMetric(&report, "peak_rss_mb", PeakRssMb(), "MiB", 1);
    report.notes.push_back(
        "sizes: " + std::to_string(lp_variables) +
        " LP variables, " + std::to_string(summary_rows) + " summary rows, " +
        std::to_string(table_rows) + " generated rows" +
        (config.materialize
             ? ", " + std::to_string(table_bytes) + " bytes on disk"
             : std::string()));
    return report;
  }

  // Traced run: per-layer metrics over the traced iterations.
  const auto by_iter = SpansByIteration(*rec);
  const SpanAccounting acc = AccountIterations(by_iter);
  const uint64_t k = acc.iterations;
  LayerValues values;
  if (by_iter.count(-1)) PutSetup(by_iter.at(-1), &values);
  PutRegeneration(acc, counts_total, refactorizations, summary_rows, &values);
  PutHistograms(HistogramDiff(hist_before, HistogramTotals()), &values);
  Put(&values, "hydra.materialize_gen_s",
      acc.MeanName("hydra.materialize_gen"), k);
  Put(&values, "storage.write_s",
      acc.MeanName("storage.append") + acc.MeanName("storage.close"), k);
  Put(&values, "storage.bytes_per_row",
      table_rows == 0 ? 0 : static_cast<double>(table_bytes) / table_rows,
      config.materialize ? 1 : 0);
  Put(&values, "hydra.query_gen_s", acc.MeanName("hydra.query_gen"), k);
  Put(&values, "engine.query_self_s", acc.MeanName("engine.execute"), k);
  Put(&values, "engine.scan_yield",
      rows_generated == 0 ? 0
                          : static_cast<double>(rows_passing) / rows_generated,
      k);
  EmitPerLayer(values, acc, Median(untraced_iter), Median(traced_iter),
               &report);
  return report;
}

// ----------------------------------------------------------- serve_wire ----

// Keeps the store_sales pair in lockstep: each member arrives before every
// NextBatch and waits for the other, so neither runs ahead of the chunk the
// other needs. A member whose stream ended or failed leaves.
class PairStep {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ >= parties_) {
      Release();
      return;
    }
    const uint64_t generation = generation_;
    cv_.wait(lock, [&] { return generation_ != generation; });
  }
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --parties_;
    if (arrived_ > 0 && arrived_ >= parties_) Release();
  }

 private:
  void Release() {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  int parties_ = 2;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One client stream of a round: a rank range of one relation with a PK
// range filter and a (PK, data attribute) projection.
struct Stream {
  CursorSpec spec;
  int64_t filter_lo = 0, filter_hi = 0;
  uint64_t reference_hash = 0;
};

constexpr char kServedId[] = "served";
constexpr int kConnections = 4;

// The served system: the CODD-scaled summary on disk behind one RegenServer
// and one NetServer, and the benchmark's connections to it. Members are
// destroyed in reverse order: connections close, then the NetServer stops,
// then the RegenServer goes.
struct ServeSystem {
  DatabaseSummary summary;
  std::unique_ptr<RegenServer> server;
  std::unique_ptr<NetServer> net;
  std::vector<std::unique_ptr<NetClient>> clients;
  std::vector<Stream> streams;
  int store_sales = -1, inventory = -1;
  // Traced set-up only: counters of its traced regeneration.
  RegenCounts traced_counts;
  uint64_t traced_refactorizations = 0;
};

// The streams: connections 0 and 1 scan all of store_sales together, 2 and
// 3 scan disjoint halves of inventory. Filter windows come from the seed.
// Each reference hash is computed from TupleGenerator::FillBlockRange with
// the benchmark's own filter and projection, not through the server.
std::vector<Stream> MakeStreams(const DatabaseSummary& summary, int ss,
                                int inv, uint64_t seed) {
  const Schema& schema = summary.schema;
  const TupleGenerator gen(summary);
  const int64_t ss_rows = static_cast<int64_t>(gen.RowCount(ss));
  const int64_t inv_rows = static_cast<int64_t>(gen.RowCount(inv));
  struct Range {
    int relation;
    int64_t begin, end;
    const char* attr;
  };
  const Range ranges[kConnections] = {
      {ss, 0, ss_rows, "ss_net_profit"},
      {ss, 0, ss_rows, "ss_quantity"},
      {inv, 0, inv_rows / 2, "inv_quantity_on_hand"},
      {inv, inv_rows / 2, inv_rows, "inv_quantity_on_hand"}};
  uint64_t state = seed;
  std::vector<Stream> streams;
  for (const Range& r : ranges) {
    const Relation& rel = schema.relation(r.relation);
    const int pk = rel.PrimaryKeyIndex();
    const int attr = rel.AttrIndex(r.attr);
    const int64_t len = r.end - r.begin;
    Stream s;
    const uint64_t slack = static_cast<uint64_t>(std::max<int64_t>(1, len / 8));
    s.filter_lo = r.begin + static_cast<int64_t>(SplitMix(&state) % slack);
    s.filter_hi = s.filter_lo + len * 3 / 4;
    s.spec.relation = r.relation;
    s.spec.begin_rank = r.begin;
    s.spec.end_rank = r.end;
    s.spec.filter = PredicateOf(AtomRange(pk, s.filter_lo, s.filter_hi));
    s.spec.projection = {pk, attr};
    uint64_t h = kHashSeed;
    RowBlock block;
    constexpr int64_t kChunk = 1 << 16;
    for (int64_t b = r.begin; b < r.end; b += kChunk) {
      block.Reset(rel.num_attributes());
      gen.FillBlockRange(r.relation, b, std::min(r.end, b + kChunk), &block);
      const Value* keys = block.Column(pk);
      const Value* values = block.Column(attr);
      for (int64_t i = 0; i < block.num_rows(); ++i) {
        if (keys[i] >= s.filter_lo && keys[i] < s.filter_hi) {
          h = Mix(Mix(h, keys[i]), values[i]);
        }
      }
    }
    s.reference_hash = h;
    streams.push_back(std::move(s));
  }
  return streams;
}

StatusOr<std::unique_ptr<ServeSystem>> SetUpServe(
    const WorkloadConfig& config, uint64_t seed, SpanRecorder* rec,
    uint64_t parent) {
  HYDRA_ASSIGN_OR_RETURN(ClientSite site, BuildSite(config, seed, rec, parent));
  // CODD: scale the metadata and the CCs, then regenerate (as sec74_exabyte).
  Schema scaled = site.schema;
  HYDRA_RETURN_IF_ERROR(ApplyMetadata(
      ScaleMetadata(CaptureMetadata(site.database), config.codd_factor),
      &scaled));
  const std::vector<CardinalityConstraint> ccs =
      ScaleConstraints(site.ccs, config.codd_factor);
  auto system = std::make_unique<ServeSystem>();
  const HydraRegenerator hydra(scaled);
  HYDRA_ASSIGN_OR_RETURN(RegenerationResult result, hydra.Regenerate(ccs));
  system->summary = std::move(result.summary);
  const std::string path = config.work_dir + "/served.summary";
  HYDRA_ASSIGN_OR_RETURN(const std::string bytes,
                         SummaryBytes(system->summary, path));
  if (rec != nullptr) {
    // The traced set-up regenerates through the traced stages too; they
    // must produce Regenerate's summary byte for byte.
    const Histogram* refactor =
        MetricRegistry::FindHistogram("lp/refactorize_us");
    const uint64_t refactor_before = refactor ? refactor->count() : 0;
    HYDRA_ASSIGN_OR_RETURN(DatabaseSummary traced,
                           TracedRegenerate(scaled, ccs, rec, parent, -1,
                                            &system->traced_counts));
    system->traced_refactorizations =
        (refactor ? refactor->count() : 0) - refactor_before;
    HYDRA_ASSIGN_OR_RETURN(
        const std::string traced_bytes,
        SummaryBytes(traced, config.work_dir + "/traced.summary"));
    if (traced_bytes != bytes) {
      return Status::Internal(
          "traced regeneration is not byte-identical to Regenerate");
    }
  }
  system->store_sales = scaled.RelationIndex("store_sales");
  system->inventory = scaled.RelationIndex("inventory");
  system->streams = MakeStreams(system->summary, system->store_sales,
                                system->inventory, seed);
  system->server = std::make_unique<RegenServer>();
  HYDRA_RETURN_IF_ERROR(system->server->RegisterSummary(kServedId, path));
  system->net = std::make_unique<NetServer>(system->server.get());
  HYDRA_RETURN_IF_ERROR(system->net->Start());
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<NetClient>();
    HYDRA_RETURN_IF_ERROR(client->Connect("127.0.0.1", system->net->port()));
    system->clients.push_back(std::move(client));
  }
  return system;
}

struct GroupCounts {
  uint64_t fills = 0, hits = 0, catch_up = 0, pacing_waits = 0;
  void Add(const ScanGroupInfo& info) {
    pacing_waits += info.pacing_waits;
    fills += info.fills;
    hits += info.hits;
    catch_up += info.catch_up;
  }
  void Add(const GroupCounts& o) {
    pacing_waits += o.pacing_waits;
    fills += o.fills;
    hits += o.hits;
    catch_up += o.catch_up;
  }
};

struct RoundResult {
  double wall_s = 0;
  double cpu_s = 0;
  int complete_streams = 0;
  uint64_t rows = 0;
  uint64_t ranks_scanned = 0;
  std::vector<double> batch_us;
  GroupCounts coresident, disjoint;
};

// One connection's stream within a round.
struct StreamRun {
  SessionHandle session;
  CursorHandle cursor;
  RowBlock block;
  uint64_t hash = kHashSeed;
  uint64_t rows = 0;
  bool complete = false;  // reached the end of the stream
  std::vector<double> batch_us;
};

// Opens connection c's session and cursor, reconnecting first if the server
// dropped the connection; returns whether the stream can start.
bool OpenStream(ServeSystem& sys, Ops& ops, int c, StreamRun* run,
                SpanRecorder* rec, uint64_t root, int64_t iter) {
  NetClient& client = *sys.clients[c];
  if (!client.connected()) {
    ScopedSpan span(rec, "net.connect", root, iter);
    if (!ops.Call(client.Connect("127.0.0.1", sys.net->port()), "Connect")) {
      return false;
    }
  }
  {
    ScopedSpan span(rec, "net.open_session", root, iter);
    OpenSessionRequest request;
    request.summary_id = kServedId;
    auto s = client.OpenSession(request);
    if (!ops.Call(s.status(), "OpenSession")) return false;
    run->session = *s;
  }
  ScopedSpan span(rec, "net.open_cursor", root, iter);
  auto k = client.OpenCursor(run->session, sys.streams[c].spec);
  if (!ops.Call(k.status(), "OpenCursor")) return false;
  run->cursor = *k;
  return true;
}

// One NextBatch on connection c; returns whether the stream goes on. At the
// end of the stream, checks its hash against the reference.
bool StepStream(ServeSystem& sys, Ops& ops, int c, StreamRun* run,
                SpanRecorder* rec, uint64_t root, int64_t iter) {
  const int64_t b0 = NowNs();
  StatusOr<BatchResult> batch = Status::Internal("not run");
  {
    ScopedSpan span(rec, "net.next_batch", root, iter);
    batch = sys.clients[c]->NextBatch(run->session, run->cursor,
                                      std::move(run->block));
  }
  if (!ops.Call(batch.status(), "NextBatch")) return false;
  run->batch_us.push_back(static_cast<double>(NowNs() - b0) / 1e3);
  if (batch->done) {
    run->complete = true;
    ops.Check(run->hash == sys.streams[c].reference_hash,
              "wire stream " + std::to_string(c) +
                  " hash differs from the FillBlockRange reference");
    return false;
  }
  const RowBlock& rb = batch->rows;
  run->hash = HashPairs(run->hash, rb.Column(0), rb.Column(1), rb.num_rows());
  run->rows += static_cast<uint64_t>(rb.num_rows());
  run->block = std::move(batch->rows);
  return true;
}

// One closed-loop round: every connection, on a client thread of its own,
// opens a session and a cursor, streams its range to the end, and closes.
// The store_sales pair opens both cursors before either streams and then
// steps in lockstep. Scan-group counters are sampled before the sessions
// close.
RoundResult RunRound(ServeSystem& sys, Ops& ops, SpanRecorder* rec,
                     int64_t iter) {
  RoundResult round;
  std::vector<StreamRun> runs(kConnections);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  {
    ScopedSpan root(rec, "bench.round", 0, iter);
    const uint64_t root_id = root.id();
    PairStep pair;
    auto drive = [&](int c) {
      const bool in_pair = c < 2;
      bool live = OpenStream(sys, ops, c, &runs[c], rec, root_id, iter);
      while (live) {
        if (in_pair) pair.Arrive();
        live = StepStream(sys, ops, c, &runs[c], rec, root_id, iter);
      }
      if (in_pair) pair.Leave();
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) threads.emplace_back(drive, c);
    for (std::thread& t : threads) t.join();
    for (const ScanGroupInfo& g : sys.server->scan_group_infos()) {
      if (g.relation == sys.store_sales) round.coresident.Add(g);
      if (g.relation == sys.inventory) round.disjoint.Add(g);
    }
    for (int c = 0; c < kConnections; ++c) {
      // A dropped connection's sessions are reaped by the server.
      if (runs[c].session.valid() && sys.clients[c]->connected()) {
        ScopedSpan span(rec, "net.close_session", root_id, iter);
        ops.Call(sys.clients[c]->CloseSession(runs[c].session),
                 "CloseSession");
      }
    }
  }
  round.wall_s = SecondsBetween(t0, NowNs());
  round.cpu_s = ProcessCpuSeconds() - cpu0;
  for (int c = 0; c < kConnections; ++c) {
    const StreamRun& run = runs[c];
    round.rows += run.rows;
    if (run.complete) {
      ++round.complete_streams;
      round.ranks_scanned += static_cast<uint64_t>(
          sys.streams[c].spec.end_rank - sys.streams[c].spec.begin_rank);
    }
    round.batch_us.insert(round.batch_us.end(), run.batch_us.begin(),
                          run.batch_us.end());
  }
  return round;
}

StatusOr<RunReport> RunServe(const WorkloadConfig& config, uint64_t seed,
                             double seconds, SpanRecorder* rec) {
  RunReport report;
  Ops ops;
  Samples samples;
  const bool traced = rec != nullptr;

  std::unique_ptr<ServeSystem> sys;
  for (int s = 0; s < config.setups; ++s) {
    sys.reset();  // tear the previous set-up down first
    const bool last = s + 1 == config.setups;
    const int64_t t0 = NowNs();
    ScopedSpan span(last ? rec : nullptr, "bench.setup", 0, -1);
    HYDRA_ASSIGN_OR_RETURN(
        sys, SetUpServe(config, seed, last ? rec : nullptr, span.id()));
    samples.Add("setup", SecondsBetween(t0, NowNs()));
  }
  report.notes.push_back(
      "inputs: TPC-DS schema sf=" + std::to_string(config.scale_factor) +
      ", " + std::to_string(config.num_queries) + " WLc queries (query seed " +
      std::to_string(config.query_seed) + "), client database seed " +
      std::to_string(seed) + ", CODD x" + std::to_string(config.codd_factor));
  report.notes.push_back(
      "served: store_sales " +
      std::to_string(sys->summary.relations[sys->store_sales].TotalCount()) +
      " rows in " +
      std::to_string(sys->summary.relations[sys->store_sales].rows.size()) +
      " summary rows, inventory " +
      std::to_string(sys->summary.relations[sys->inventory].TotalCount()) +
      " rows in " +
      std::to_string(sys->summary.relations[sys->inventory].rows.size()) +
      " summary rows; closed loop of 4 connections with default "
      "ServeOptions and NetServerOptions");

  const auto hist_before = HistogramTotals();
  const ServeStats serve_before = sys->server->stats();
  const NetStats net_before = sys->net->stats();

  std::vector<double> batch_us, untraced_round, traced_round;
  uint64_t rows = 0, ranks = 0;
  double timed_wall = 0;
  GroupCounts coresident, disjoint;
  const int64_t start = NowNs();
  for (int64_t it = 0;; ++it) {
    const bool timed_out = SecondsBetween(start, NowNs()) >= seconds;
    if (timed_out && it >= config.min_iterations * (traced ? 2 : 1)) break;
    const bool trace_this = traced && it % 2 == 1;
    RoundResult round = RunRound(*sys, ops, trace_this ? rec : nullptr, it);
    batch_us.insert(batch_us.end(), round.batch_us.begin(),
                    round.batch_us.end());
    // Per-round figures cover the rounds in which every stream completed.
    if (round.complete_streams == kConnections) {
      ranks += round.ranks_scanned;
      (trace_this ? traced_round : untraced_round).push_back(round.wall_s);
      samples.Add("round_cpu", round.cpu_s);
      rows += round.rows;
      timed_wall += round.wall_s;
      coresident.Add(round.coresident);
      disjoint.Add(round.disjoint);
    }
  }
  const size_t rounds = untraced_round.size() + traced_round.size();
  const auto hist = HistogramDiff(hist_before, HistogramTotals());
  const ServeStats serve_after = sys->server->stats();
  const NetStats net_after = sys->net->stats();
  ops.FillReport(&report);

  if (!traced) {
    AddMedian(&report, samples, "setup", "setup_s", "s");
    AddMedian(&report, samples, "round_cpu", "cpu_s", "s");
    AddMeasured(&report, "rows_per_s", static_cast<double>(rows) / timed_wall,
                "rows/s", rounds);
    AddMeasured(&report, "batch_p50_ms", Median(batch_us) / 1e3, "ms",
                batch_us.size());
    AddMeasured(&report, "batch_p90_ms", Percentile(batch_us, 0.9) / 1e3,
                "ms", batch_us.size());
    AddMetric(&report, "summary_bytes",
              static_cast<double>(sys->summary.ByteSize()), "B", 1);
    AddMetric(&report, "peak_rss_mb", PeakRssMb(), "MiB", 1);
    return report;
  }

  // Traced run. Server-side time inside a client NextBatch is split from
  // the registry histograms over the timed window: generation fills are
  // "hydra", the rest of serve/next_batch_us is "serve", and the remainder
  // of the client's call (dispatch, decode, encode, socket) stays "net".
  const auto by_iter = SpansByIteration(*rec);
  SpanAccounting acc = AccountIterations(by_iter);
  LayerValues values;
  if (by_iter.count(-1)) {
    const std::vector<Span>& setup = by_iter.at(-1);
    PutSetup(setup, &values);
    SpanAccounting setup_acc;
    for (const Span& s : setup) {
      if (s.parent == 0) {
        setup_acc.AddIteration(setup, s.id);
        break;
      }
    }
    PutRegeneration(setup_acc, sys->traced_counts,
                    sys->traced_refactorizations, SummaryRows(sys->summary),
                    &values);
  }
  PutHistograms(hist, &values);
  auto hist_sum = [&](const char* name) {
    auto it = hist.find(name);
    return it == hist.end() ? 0.0 : static_cast<double>(it->second.sum);
  };
  double client_sum_us = 0;
  for (double v : batch_us) client_sum_us += v;
  const double fill_share =
      client_sum_us > 0 ? hist_sum("gen/fill_us") / client_sum_us : 0;
  const double serve_share =
      client_sum_us > 0 ? std::max(0.0, hist_sum("serve/next_batch_us") -
                                            hist_sum("gen/fill_us")) /
                              client_sum_us
                        : 0;
  const double next_batch_s = acc.by_name["net.next_batch"];
  acc.by_layer["hydra"] += next_batch_s * fill_share;
  acc.by_layer["serve"] += next_batch_s * serve_share;
  acc.by_layer["net"] -= next_batch_s * (fill_share + serve_share);

  auto mean_us = [&](const char* name) {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second.value;
  };
  Put(&values, "net.client_other_us",
      (batch_us.empty() ? 0 : client_sum_us / batch_us.size()) -
          mean_us("net.dispatch_wait_us") - mean_us("net.handle_us") -
          mean_us("net.write_us"),
      batch_us.size());
  auto frac = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
  };
  const uint64_t grants =
      serve_after.admission_grants - serve_before.admission_grants;
  const uint64_t fills =
      serve_after.shared_chunk_fills - serve_before.shared_chunk_fills;
  const uint64_t hits =
      serve_after.shared_chunk_hits - serve_before.shared_chunk_hits;
  Put(&values, "serve.admission_wait_frac",
      frac(serve_after.admission_waits - serve_before.admission_waits,
           grants),
      grants);
  Put(&values, "serve.shared_hit_frac", frac(hits, hits + fills),
      hits + fills);
  Put(&values, "serve.catch_up_frac",
      frac(serve_after.catch_up_batches - serve_before.catch_up_batches,
           fills),
      fills);
  Put(&values, "serve.coresident.shared_hit_frac",
      frac(coresident.hits, coresident.hits + coresident.fills),
      coresident.hits + coresident.fills);
  Put(&values, "serve.coresident.catch_up_frac",
      frac(coresident.catch_up, coresident.fills), coresident.fills);
  Put(&values, "serve.disjoint.shared_hit_frac",
      frac(disjoint.hits, disjoint.hits + disjoint.fills),
      disjoint.hits + disjoint.fills);
  Put(&values, "serve.disjoint.catch_up_frac",
      frac(disjoint.catch_up, disjoint.fills), disjoint.fills);
  Put(&values, "serve.coresident.pacing_waits",
      static_cast<double>(coresident.pacing_waits) /
          std::max<size_t>(1, rounds),
      rounds);
  Put(&values, "serve.filter_yield", frac(rows, ranks), ranks);
  Put(&values, "serve.failed",
      static_cast<double>(
          (serve_after.shed_requests - serve_before.shed_requests) +
          (serve_after.cancelled_requests - serve_before.cancelled_requests) +
          (serve_after.load_retries - serve_before.load_retries)),
      1);
  Put(&values, "net.failed",
      static_cast<double>(
          (net_after.protocol_errors - net_before.protocol_errors) +
          (net_after.connections_dropped - net_before.connections_dropped)),
      1);
  EmitPerLayer(values, acc, Median(untraced_round), Median(traced_round),
               &report);
  return report;
}
}  // namespace

StatusOr<RunReport> RunWorkload(const WorkloadConfig& config, uint64_t seed,
                                double seconds, SpanRecorder* recorder) {
  if (config.serve) return RunServe(config, seed, seconds, recorder);
  return RunRegeneration(config, seed, seconds, recorder);
}

}  // namespace perfbench
