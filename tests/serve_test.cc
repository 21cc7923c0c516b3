// Tests for the dynamic-regeneration service (src/serve/): summary-cache
// LRU/pinning behavior, fair-scheduler backpressure, and — the serving
// contract — byte-identical per-client streams across every
// {max_inflight, clients, cache_bytes, batch_rows} configuration, including
// cursors that survive LRU eviction and reload of their summary.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "hydra/regenerator.h"
#include "hydra/summary_io.h"
#include "hydra/tuple_generator.h"
#include "serve/scheduler.h"
#include "serve/serve_api.h"
#include "serve/server.h"
#include "serve/summary_store.h"
#include "workload/toy.h"

namespace hydra {
namespace {

// A session request for `summary_id`, every other field at its default.
OpenSessionRequest SessionRequest(std::string summary_id) {
  OpenSessionRequest request;
  request.summary_id = std::move(summary_id);
  return request;
}

constexpr uint64_t kFnvSeed = 14695981039346656037ull;

uint64_t HashValues(uint64_t h, const Value* v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    uint64_t x = static_cast<uint64_t>(v[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Hashes a block's logical rows in row-major order: layout-independent, so
// the serving contract is over the row stream, not the storage layout.
uint64_t HashBlock(uint64_t h, const RowBlock& block) {
  Row row(block.num_columns());
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    block.CopyRowTo(r, row.data());
    h = HashValues(h, row.data(), block.num_columns());
  }
  return h;
}

// Appends a block's rows to `out` in row-major order.
void AppendRows(const RowBlock& block, std::vector<Value>* out) {
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    const size_t base = out->size();
    out->resize(base + block.num_columns());
    block.CopyRowTo(r, out->data() + base);
  }
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_serve_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    env_ = MakeToyEnvironment();
    HydraRegenerator hydra(env_.schema);
    auto result = hydra.Regenerate(env_.ccs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    summary_ = std::move(result->summary);
    path_ = (dir_ / "toy.summary").string();
    ASSERT_TRUE(WriteSummary(summary_, path_).ok());
    summary_bytes_ = summary_.ByteSize();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Registers both toy-backed summary ids on a freshly built server.
  void RegisterBoth(RegenServer& server) {
    ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
    ASSERT_TRUE(server.RegisterSummary("beta", path_).ok());
  }

  std::filesystem::path dir_;
  std::string path_;
  ToyEnvironment env_;
  DatabaseSummary summary_;
  uint64_t summary_bytes_ = 0;
};

// ---- deterministic client workload ---------------------------------------
//
// 16 fixed work items; item c's result depends only on c (never on how many
// clients run concurrently), so its hash must match across every server
// configuration. Kinds rotate: filtered+projected range scan, point-lookup
// burst, full engine pipeline.

constexpr int kNumItems = 16;

uint64_t RunItem(RegenServer& server, const ToyEnvironment& env, int c,
                 std::string* error) {
  const auto fail = [&](const Status& s) {
    *error = "item " + std::to_string(c) + ": " + s.ToString();
    return uint64_t{0};
  };
  auto sid = server.OpenSession(SessionRequest(c % 2 == 0 ? "alpha" : "beta"));
  if (!sid.ok()) return fail(sid.status());
  uint64_t h = kFnvSeed;
  const int kind = c % 3;
  if (kind == 0) {
    CursorSpec spec;
    spec.relation = env.schema.RelationIndex("R");
    const int64_t lo = (c * 37) % 300;
    spec.filter = PredicateOf(AtomRange(/*column=*/1, lo, lo + 200));
    spec.projection = {0, 1};
    spec.begin_rank = c * 1000;
    spec.end_rank = spec.begin_rank + 9000;
    auto cid = server.OpenCursor(*sid, spec);
    if (!cid.ok()) return fail(cid.status());
    RowBlock block;
    for (;;) {
      auto batch = server.NextBatch(*sid, *cid, std::move(block));
      if (!batch.ok()) return fail(batch.status());
      if (batch->done) break;
      h = HashBlock(h, batch->rows);
      block = std::move(batch->rows);
    }
  } else if (kind == 1) {
    const int rel = env.schema.RelationIndex(c % 2 == 0 ? "S" : "T");
    const int64_t rows = c % 2 == 0 ? 700 : 1500;
    for (int i = 0; i < 300; ++i) {
      auto row = server.Lookup(*sid, rel, (i * 97 + c * 13) % rows);
      if (!row.ok()) return fail(row.status());
      h = HashValues(h, row->data(), static_cast<int64_t>(row->size()));
    }
  } else {
    auto aqp = server.ExecuteQuery(*sid, env.query);
    if (!aqp.ok()) return fail(aqp.status());
    for (const AqpStep& step : aqp->steps) {
      h = HashString(h, step.label);
      h = HashValues(h, reinterpret_cast<const Value*>(&step.cardinality), 1);
    }
  }
  EXPECT_TRUE(server.CloseSession(*sid).ok());
  return h;
}

// Distributes the kNumItems work items round-robin over `clients` threads.
std::vector<uint64_t> RunClients(RegenServer& server,
                                 const ToyEnvironment& env, int clients,
                                 std::vector<std::string>* errors) {
  std::vector<uint64_t> hashes(kNumItems, 0);
  errors->assign(kNumItems, "");
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (int c = t; c < kNumItems; c += clients) {
        hashes[c] = RunItem(server, env, c, &(*errors)[c]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return hashes;
}

// ---- serving determinism --------------------------------------------------

TEST_F(ServeTest, StreamsByteIdenticalAcrossConfigurations) {
  const uint64_t big = 64ull << 20;
  const uint64_t tiny = summary_bytes_ + 64;  // fits exactly one summary
  struct Config {
    int inflight;
    int clients;
    uint64_t cache_bytes;
    int64_t batch_rows;
  };
  std::vector<Config> configs;
  for (int inflight : {1, 2, 8}) {
    for (int clients : {1, 4, 16}) {
      configs.push_back({inflight, clients, big, 4096});
    }
  }
  configs.push_back({8, 16, tiny, 513});   // evicting cache, odd batches
  configs.push_back({2, 16, tiny, 1009});

  std::vector<uint64_t> reference;
  for (const Config& config : configs) {
    ServeOptions options;
    options.max_inflight = config.inflight;
    options.cache_bytes = config.cache_bytes;
    options.batch_rows = config.batch_rows;
    RegenServer server(options);
    RegisterBoth(server);
    std::vector<std::string> errors;
    const std::vector<uint64_t> hashes =
        RunClients(server, env_, config.clients, &errors);
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    if (reference.empty()) {
      reference = hashes;
      continue;
    }
    EXPECT_EQ(hashes, reference)
        << "streams diverged at inflight=" << config.inflight
        << " clients=" << config.clients
        << " cache=" << config.cache_bytes
        << " batch=" << config.batch_rows;
    const ServeStats stats = server.stats();
    EXPECT_GT(stats.rows_served, 0u);
    EXPECT_GT(stats.lookups_served, 0u);
    EXPECT_GT(stats.queries_served, 0u);
  }
}

TEST_F(ServeTest, CursorStreamMatchesGeneratorScan) {
  RegenServer server{ServeOptions{}};
  RegisterBoth(server);
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  const int r = env_.schema.RelationIndex("R");
  CursorSpec spec;
  spec.relation = r;
  spec.filter = PredicateOf(AtomRange(/*column=*/1, 100, 400));
  spec.projection = {1, 2};
  auto cid = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(cid.ok());
  std::vector<Value> served;
  RowBlock block;
  for (;;) {
    auto batch = server.NextBatch(*sid, *cid, std::move(block));
    ASSERT_TRUE(batch.ok());
    if (batch->done) break;
    AppendRows(batch->rows, &served);
    block = std::move(batch->rows);
  }

  TupleGenerator gen(summary_);
  std::vector<Value> expected;
  gen.Scan(r, [&](const Row& row) {
    if (row[1] >= 100 && row[1] < 400) {
      expected.push_back(row[1]);
      expected.push_back(row[2]);
    }
  });
  EXPECT_EQ(served, expected);
}

// A private grant (here: a solo cursor's) fills only the columns its cursor
// reads, the filter's and the projection's, and fans out of that block. Each
// stream must equal the generator's ScanRange rows filtered and projected,
// from a start inside a summary run to a stop short of the relation's end,
// at batch sizes that split the range into 1-row, odd-sized and
// run-spanning grants.
TEST_F(ServeTest, PrivateGrantsMatchTheGeneratorScan) {
  const int r = env_.schema.RelationIndex("R");
  const Relation& rel = env_.schema.relation(r);
  const int pk = rel.PrimaryKeyIndex();
  const int s_fk = rel.AttrIndex("S_fk");
  const int t_fk = rel.AttrIndex("T_fk");
  // R's summary runs: [0, 30000) S_fk 0, T_fk 0; [30000, 50000) S_fk 300,
  // T_fk 0; [50000, 80000) S_fk 300, T_fk 600.
  const RelationSummary& rs = summary_.relations[r];
  ASSERT_EQ(rs.rows.size(), 3u);
  ASSERT_EQ(rs.prefix_counts[1], 30000);
  ASSERT_EQ(rs.prefix_counts[2], 50000);
  ASSERT_EQ(rs.TotalCount(), 80000);
  const int64_t begin = 28000;
  const int64_t end = 52000;

  std::vector<std::pair<const char*, CursorSpec>> specs(4);
  // Filters on S_fk, which the projection drops: a fill that leaves the
  // filter's columns out reads unspecified values.
  specs[0].first = "filter outside the projection";
  specs[0].second.filter = PredicateOf(AtomRange(s_fk, 1, 1000));
  specs[0].second.projection = {t_fk, pk};
  specs[1].first = "reordered projection with a repeat";
  specs[1].second.projection = {t_fk, pk, t_fk};
  // A PK atom varies inside a run; the other disjunct keeps the last run.
  specs[2].first = "filter, no projection";
  specs[2].second.filter = PredicateOf(AtomRange(t_fk, 600, 601))
                               .Or(PredicateOf(AtomRange(pk, 29990, 30010)));
  specs[3].first = "neither";
  for (auto& [name, spec] : specs) {
    spec.relation = r;
    spec.begin_rank = begin;
    spec.end_rank = end;
  }

  const TupleGenerator gen(summary_);
  for (const auto& [name, spec] : specs) {
    std::vector<Value> expected;
    int64_t kept = 0;
    gen.ScanRange(r, begin, end, [&](const Row& row) {
      if (!spec.filter.Eval(row)) return;
      ++kept;
      if (spec.projection.empty()) {
        expected.insert(expected.end(), row.begin(), row.end());
      }
      for (const int c : spec.projection) expected.push_back(row[c]);
    });
    // A filter that keeps every row or none could not tell filled filter
    // columns from unfilled ones.
    if (!spec.filter.IsTrue()) {
      ASSERT_GT(kept, 0) << name;
      ASSERT_LT(kept, end - begin) << name;
    }
    for (const int64_t batch_rows : {1, 7, 513, 4096}) {
      ServeOptions options;
      options.batch_rows = batch_rows;
      RegenServer server(options);
      RegisterBoth(server);
      auto sid = server.OpenSession(SessionRequest("alpha"));
      ASSERT_TRUE(sid.ok());
      auto cid = server.OpenCursor(*sid, spec);
      ASSERT_TRUE(cid.ok()) << cid.status().ToString();
      std::vector<Value> served;
      RowBlock block;
      for (;;) {
        auto batch = server.NextBatch(*sid, *cid, std::move(block));
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        if (batch->done) break;
        AppendRows(batch->rows, &served);
        block = std::move(batch->rows);
      }
      EXPECT_EQ(served, expected) << name << " at batch_rows " << batch_rows;
      EXPECT_EQ(server.stats().shared_chunk_fills, 0u) << name;
    }
  }
}

TEST_F(ServeTest, CursorSurvivesEvictionAndReload) {
  ServeOptions options;
  options.max_inflight = 1;
  options.cache_bytes = summary_bytes_ + 64;  // room for one summary only
  options.batch_rows = 1000;
  RegenServer server(options);
  RegisterBoth(server);
  const int r = env_.schema.RelationIndex("R");
  CursorSpec spec;
  spec.relation = r;

  // Uninterrupted reference stream.
  std::vector<Value> expected;
  {
    TupleGenerator gen(summary_);
    gen.Scan(r, [&](const Row& row) {
      expected.insert(expected.end(), row.begin(), row.end());
    });
  }

  auto alpha = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(alpha.ok());
  auto cursor = server.OpenCursor(*alpha, spec);
  ASSERT_TRUE(cursor.ok());
  std::vector<Value> served;
  RowBlock block;
  for (int i = 0; i < 3; ++i) {
    auto batch = server.NextBatch(*alpha, *cursor, std::move(block));
    ASSERT_TRUE(batch.ok() && !batch->done);
    AppendRows(batch->rows, &served);
    block = std::move(batch->rows);
  }

  // Traffic on the other summary evicts alpha's (unpinned between calls).
  auto beta = server.OpenSession(SessionRequest("beta"));
  ASSERT_TRUE(beta.ok());
  auto beta_cursor = server.OpenCursor(*beta, spec);
  ASSERT_TRUE(beta_cursor.ok());
  auto beta_batch = server.NextBatch(*beta, *beta_cursor, std::move(block));
  ASSERT_TRUE(beta_batch.ok() && !beta_batch->done);
  block = std::move(beta_batch->rows);
  EXPECT_GE(server.stats().evictions, 1u);

  // The cursor continues over a freshly reloaded summary, byte-identically.
  for (;;) {
    auto batch = server.NextBatch(*alpha, *cursor, std::move(block));
    ASSERT_TRUE(batch.ok());
    if (batch->done) break;
    AppendRows(batch->rows, &served);
    block = std::move(batch->rows);
  }
  EXPECT_EQ(served, expected);
  EXPECT_GE(server.stats().cache_misses, 3u);  // alpha, beta, alpha again
}

TEST_F(ServeTest, CursorReopensAtSavedRank) {
  RegenServer server{ServeOptions{}};
  RegisterBoth(server);
  const int r = env_.schema.RelationIndex("R");
  CursorSpec spec;
  spec.relation = r;

  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  auto cid = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(cid.ok());
  std::vector<Value> first_half;
  RowBlock block;
  for (int i = 0; i < 5; ++i) {
    auto batch = server.NextBatch(*sid, *cid, std::move(block));
    ASSERT_TRUE(batch.ok() && !batch->done);
    AppendRows(batch->rows, &first_half);
    block = std::move(batch->rows);
  }
  auto rank = server.CursorRank(*sid, *cid);
  ASSERT_TRUE(rank.ok());
  ASSERT_TRUE(server.CloseSession(*sid).ok());

  // A brand-new session resumes at the saved rank: the concatenation must
  // equal one uninterrupted stream.
  auto sid2 = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid2.ok());
  CursorSpec resume = spec;
  resume.begin_rank = *rank;
  auto cid2 = server.OpenCursor(*sid2, resume);
  ASSERT_TRUE(cid2.ok());
  std::vector<Value> resumed = first_half;
  for (;;) {
    auto batch = server.NextBatch(*sid2, *cid2, std::move(block));
    ASSERT_TRUE(batch.ok());
    if (batch->done) break;
    AppendRows(batch->rows, &resumed);
    block = std::move(batch->rows);
  }

  std::vector<Value> expected;
  TupleGenerator gen(summary_);
  gen.Scan(r, [&](const Row& row) {
    expected.insert(expected.end(), row.begin(), row.end());
  });
  EXPECT_EQ(resumed, expected);
}

TEST_F(ServeTest, ExecuteQueryMatchesDirectExecutor) {
  RegenServer server{ServeOptions{}};
  RegisterBoth(server);
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  auto served = server.ExecuteQuery(*sid, env_.query);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  TupleGenerator gen(summary_);
  Executor direct(summary_.schema);
  auto expected = direct.Execute(env_.query, gen);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(served->steps.size(), expected->steps.size());
  for (size_t i = 0; i < expected->steps.size(); ++i) {
    EXPECT_EQ(served->steps[i].label, expected->steps[i].label);
    EXPECT_EQ(served->steps[i].cardinality, expected->steps[i].cardinality);
  }
}

// A served query runs on the thread that called ExecuteQuery: the server
// owns no pool, so the query starts no pool task. Armed with a zero delay,
// the chaos hook thread_pool/dispatch only counts pool task starts and
// claimed ParallelFor indices.
TEST_F(ServeTest, ExecuteQueryStartsNoPoolTask) {
  ServeOptions options;
  options.max_inflight = 4;
  RegenServer server(options);
  RegisterBoth(server);
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(Failpoint::ArmFromString("thread_pool/dispatch=delay(0)").ok());
  const Failpoint* point = Failpoint::Find("thread_pool/dispatch");
  ASSERT_NE(point, nullptr);
  const uint64_t before = point->hits();
  auto served = server.ExecuteQuery(*sid, env_.query);
  const uint64_t after = point->hits();
  Failpoint::DisarmAll();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(after, before);
}

// ---- shared scans ---------------------------------------------------------
//
// Multicast contract (docs/serve.md): cursors co-resident on one
// (summary, relation) share generation passes, but every member's stream
// stays byte-identical to the stream a lone cursor with the same spec would
// produce — whatever the member mix, join order, batch size, cancellations,
// or evictions.

// Client c's cursor spec over R: specs deliberately differ per member
// (group keying is (summary, relation) only; filters/projections/ranges are
// per-member) so fan-out correctness is exercised, not just block reuse.
CursorSpec SharedSpec(const ToyEnvironment& env, int c) {
  CursorSpec spec;
  spec.relation = env.schema.RelationIndex("R");
  switch (c % 3) {
    case 0:
      break;  // identity scan, all columns
    case 1:
      spec.filter = PredicateOf(AtomRange(/*column=*/1, 40 + c, 400 + c));
      spec.projection = {0, 1};
      break;
    default:
      spec.projection = {2};
      break;
  }
  spec.begin_rank = (c % 4) * 777;
  spec.end_rank = 80000 - (c % 5) * 333;
  return spec;
}

// Streams client c's cursor to completion on its own session.
uint64_t RunSharedClient(RegenServer& server, const ToyEnvironment& env,
                         int c, std::string* error) {
  const auto fail = [&](const Status& s) {
    *error = "client " + std::to_string(c) + ": " + s.ToString();
    return uint64_t{0};
  };
  auto sid = server.OpenSession(SessionRequest("alpha"));
  if (!sid.ok()) return fail(sid.status());
  auto cid = server.OpenCursor(*sid, SharedSpec(env, c));
  if (!cid.ok()) return fail(cid.status());
  uint64_t h = kFnvSeed;
  RowBlock block;
  for (;;) {
    auto batch = server.NextBatch(*sid, *cid, std::move(block));
    if (!batch.ok()) return fail(batch.status());
    if (batch->done) break;
    h = HashBlock(h, batch->rows);
    block = std::move(batch->rows);
  }
  EXPECT_TRUE(server.CloseSession(*sid).ok());
  return h;
}

TEST_F(ServeTest, SharedScanStreamsIdenticalToSolo) {
  constexpr int kSpecs = 12;
  // Solo reference: sharing disabled, one client at a time.
  std::vector<uint64_t> reference(kSpecs);
  {
    ServeOptions options;
    options.shared_scan = false;
    RegenServer server(options);
    RegisterBoth(server);
    for (int c = 0; c < kSpecs; ++c) {
      std::string error;
      reference[c] = RunSharedClient(server, env_, c, &error);
      ASSERT_EQ(error, "");
    }
  }

  struct Config {
    int inflight;
    int clients;
    int64_t batch_rows;
  };
  for (const Config& config : std::vector<Config>{
           {1, 4, 512}, {4, 8, 1000}, {8, 12, 4096}, {2, 6, 257}}) {
    ServeOptions options;
    options.max_inflight = config.inflight;
    options.batch_rows = config.batch_rows;
    RegenServer server(options);
    RegisterBoth(server);
    std::vector<uint64_t> hashes(kSpecs, 0);
    std::vector<std::string> errors(kSpecs);
    std::vector<std::thread> threads;
    for (int t = 0; t < config.clients; ++t) {
      threads.emplace_back([&, t] {
        for (int c = t; c < kSpecs; c += config.clients) {
          hashes[c] = RunSharedClient(server, env_, c, &errors[c]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    EXPECT_EQ(hashes, reference)
        << "multicast diverged at inflight=" << config.inflight
        << " clients=" << config.clients << " batch=" << config.batch_rows;
    const ServeStats stats = server.stats();
    EXPECT_GE(stats.scan_groups_formed, 1u);
    EXPECT_GE(stats.peak_group_fanout, 2u);
    EXPECT_GT(stats.shared_chunk_fills, 0u);
  }
}

TEST_F(ServeTest, TwoCursorsShareOneGenerationPass) {
  // Deterministic accounting: two cursors on one session, interleaved
  // batch-by-batch — the follower must ride the leader's chunks (one fill,
  // one hit per chunk) and both streams must equal the generator scan.
  ServeOptions options;
  options.max_inflight = 1;
  options.batch_rows = 8192;
  RegenServer server(options);
  RegisterBoth(server);
  const int r = env_.schema.RelationIndex("R");
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = r;
  auto a = server.OpenCursor(*sid, spec);
  auto b = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<Value> rows_a, rows_b;
  RowBlock block;
  for (;;) {
    auto batch_a = server.NextBatch(*sid, *a, std::move(block));
    ASSERT_TRUE(batch_a.ok());
    if (!batch_a->done) AppendRows(batch_a->rows, &rows_a);
    auto batch_b = server.NextBatch(*sid, *b, std::move(batch_a->rows));
    ASSERT_TRUE(batch_b.ok());
    if (!batch_b->done) AppendRows(batch_b->rows, &rows_b);
    block = std::move(batch_b->rows);
    if (batch_a->done && batch_b->done) break;
  }
  EXPECT_EQ(rows_a, rows_b);
  std::vector<Value> expected;
  TupleGenerator gen(summary_);
  gen.Scan(r, [&](const Row& row) {
    expected.insert(expected.end(), row.begin(), row.end());
  });
  EXPECT_EQ(rows_a, expected);
  const ServeStats stats = server.stats();
  const uint64_t chunks = (80000 + 8192 - 1) / 8192;
  EXPECT_EQ(stats.scan_groups_formed, 1u);
  EXPECT_EQ(stats.peak_group_fanout, 2u);
  EXPECT_EQ(stats.shared_chunk_fills, chunks);
  EXPECT_EQ(stats.shared_chunk_hits, chunks);
  EXPECT_EQ(stats.catch_up_batches, 0u);
}

TEST_F(ServeTest, ScanGroupIntrospectionMatchesServerCounters) {
  // Same deterministic two-member group as above, observed through the
  // introspection surface (docs/observability.md): live rows carry group
  // identity and fan-out, and the server-wide counters outlive the group.
  ServeOptions options;
  options.max_inflight = 1;
  options.batch_rows = 8192;
  RegenServer server(options);
  RegisterBoth(server);
  const int r = env_.schema.RelationIndex("R");
  EXPECT_TRUE(server.scan_group_infos().empty());

  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = r;
  auto a = server.OpenCursor(*sid, spec);
  auto b = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  RowBlock block;
  for (int i = 0; i < 3; ++i) {
    auto batch_a = server.NextBatch(*sid, *a, std::move(block));
    ASSERT_TRUE(batch_a.ok());
    auto batch_b = server.NextBatch(*sid, *b, std::move(batch_a->rows));
    ASSERT_TRUE(batch_b.ok());
    block = std::move(batch_b->rows);
  }

  const std::vector<ScanGroupInfo> live = server.scan_group_infos();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].summary_id, "alpha");
  EXPECT_EQ(live[0].relation, r);
  EXPECT_EQ(live[0].fanout, 2u);
  EXPECT_EQ(live[0].fills, 3u);  // leader filled one chunk per round
  EXPECT_EQ(live[0].hits, 3u);   // follower rode each one
  EXPECT_EQ(live[0].catch_up, 0u);

  ASSERT_TRUE(server.CloseSession(*sid).ok());
  // The group died with its members (its rows left the introspection
  // surface), while the server-wide shared-scan counters it fed remain.
  EXPECT_TRUE(server.scan_group_infos().empty());
  EXPECT_EQ(server.stats().shared_chunk_fills, 3u);
}

TEST_F(ServeTest, ScanGroupFormsOnceAcrossMembershipDips) {
  // A group whose membership goes 2 -> 1 -> 2 is one group sharing again,
  // not a second group forming.
  RegenServer server{ServeOptions{}};
  RegisterBoth(server);
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  auto a = server.OpenCursor(*sid, spec);
  auto b = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(server.CloseCursor(*sid, *b).ok());
  auto c = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(c.ok());
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.scan_groups_formed, 1u);
  EXPECT_EQ(stats.peak_group_fanout, 2u);
  ASSERT_TRUE(server.CloseSession(*sid).ok());
}

TEST_F(ServeTest, ScanGroupChurnIsSafeUnderConcurrentSnapshots) {
  // Cursors on one (summary, relation) open and close from several threads
  // while another thread snapshots the registry. A group dying and a new
  // one forming on the same key must never collide on metric names (a
  // duplicate aborts), and each group's rows leave with the group.
  ServeOptions options;
  options.max_inflight = 2;
  options.batch_rows = 1024;
  RegenServer server(options);
  RegisterBoth(server);
  const int r = env_.schema.RelationIndex("R");
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const std::string bytes =
          SerializeMetricsSnapshot(MetricRegistry::Snapshot());
      MetricsSnapshot parsed;
      EXPECT_TRUE(ParseMetricsSnapshot(bytes, &parsed).ok());
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      auto sid = server.OpenSession(SessionRequest("alpha"));
      ASSERT_TRUE(sid.ok());
      CursorSpec spec;
      spec.relation = r;
      for (int i = 0; i < kRounds; ++i) {
        auto cid = server.OpenCursor(*sid, spec);
        ASSERT_TRUE(cid.ok());
        EXPECT_TRUE(server.NextBatch(*sid, *cid).ok());
        EXPECT_TRUE(server.CloseCursor(*sid, *cid).ok());
      }
      EXPECT_TRUE(server.CloseSession(*sid).ok());
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  snapshotter.join();

  EXPECT_TRUE(server.scan_group_infos().empty());
  for (const std::string& name : MetricRegistry::ListRegistered()) {
    EXPECT_NE(name.rfind("serve/group/", 0), 0u) << name;
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_served, uint64_t{kThreads * kRounds});
  EXPECT_GE(stats.peak_group_fanout, 1u);
  EXPECT_LE(stats.peak_group_fanout, uint64_t{kThreads});
}

TEST_F(ServeTest, StatsFieldsEqualTheirSnapshotEntries) {
  // One store per counter: on a quiesced server every ServeStats field is
  // a read of its registry entry (docs/observability.md lists the mapping),
  // so stats() and the snapshot cannot disagree. Counts are counters,
  // levels are gauges.
  ServeOptions options;
  options.max_inflight = 2;
  options.batch_rows = 1024;
  options.cache_bytes = summary_bytes_ + 64;  // one summary: evictions
  options.max_sessions = 1;
  RegenServer server(options);
  RegisterBoth(server);
  for (int c = 0; c < kNumItems; ++c) {
    std::string error;
    RunItem(server, env_, c, &error);
    EXPECT_EQ(error, "");
  }
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(server.OpenSession(SessionRequest("beta")).status().code(),
            StatusCode::kResourceExhausted);
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  spec.end_rank = 4096;
  auto a = server.OpenCursor(*sid, spec);
  auto b = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  for (const CursorHandle cursor : {*a, *b}) {
    for (;;) {
      auto batch = server.NextBatch(*sid, cursor);
      ASSERT_TRUE(batch.ok());
      if (batch->done) break;
    }
  }
  ASSERT_TRUE(server.CloseSession(*sid).ok());

  const ServeStats stats = server.stats();
  const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
  const auto counter = [&](const std::string& name) {
    for (const CounterSnapshot& c : snapshot.counters) {
      if (c.name == "serve/" + name) return c.value;
    }
    ADD_FAILURE() << "no counter serve/" << name;
    return ~uint64_t{0};
  };
  const auto gauge = [&](const std::string& name) {
    for (const GaugeSnapshot& g : snapshot.gauges) {
      if (g.name == "serve/" + name) return static_cast<uint64_t>(g.value);
    }
    ADD_FAILURE() << "no gauge serve/" << name;
    return ~uint64_t{0};
  };
  EXPECT_EQ(stats.cache_hits, counter("cache_hits"));
  EXPECT_EQ(stats.cache_misses, counter("cache_misses"));
  EXPECT_EQ(stats.evictions, counter("evictions"));
  EXPECT_EQ(stats.cached_bytes, gauge("cached_bytes"));
  EXPECT_EQ(stats.resident_summaries, gauge("resident_summaries"));
  EXPECT_EQ(stats.batches_served, counter("batches_served"));
  EXPECT_EQ(stats.rows_served, counter("rows_served"));
  EXPECT_EQ(stats.lookups_served, counter("lookups_served"));
  EXPECT_EQ(stats.queries_served, counter("queries_served"));
  EXPECT_EQ(stats.admission_waits, counter("admission_waits"));
  EXPECT_EQ(stats.admission_grants, counter("admission_grants"));
  EXPECT_EQ(stats.scan_groups_formed, counter("scan_groups_formed"));
  EXPECT_EQ(stats.peak_group_fanout, gauge("peak_group_fanout"));
  EXPECT_EQ(stats.shared_chunk_fills, counter("shared_chunk_fills"));
  EXPECT_EQ(stats.shared_chunk_hits, counter("shared_chunk_hits"));
  EXPECT_EQ(stats.catch_up_batches, counter("catch_up_batches"));
  EXPECT_EQ(stats.shared_charges, counter("shared_charges"));
  EXPECT_EQ(stats.priority_skips, counter("priority_skips"));
  EXPECT_EQ(stats.rate_deferrals, counter("rate_deferrals"));
  EXPECT_EQ(stats.load_retries, counter("load_retries"));
  EXPECT_EQ(stats.shed_requests,
            counter("admissions_shed") + counter("opens_shed"));
  EXPECT_EQ(stats.degraded_batches, counter("degraded_batches"));
  EXPECT_EQ(stats.cancelled_requests, counter("cancelled_requests"));
  // The workload moved the interesting ones off zero.
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.lookups_served, 0u);
  EXPECT_GT(stats.queries_served, 0u);
  EXPECT_EQ(stats.shared_chunk_hits, 4u);
  EXPECT_EQ(stats.shed_requests, 1u);
}

TEST_F(ServeTest, SlowOpLogIsGatedAndCounted) {
  Counter* slow_ops = MetricRegistry::FindCounter("serve/slow_ops");
  ASSERT_NE(slow_ops, nullptr);

  // A 30ms injected stall in the summary load makes OpenSession slow on a
  // cold cache — deterministically, no timing races.
  ASSERT_TRUE(Failpoint::ArmFromString("serve/summary_load=delay(30)").ok());
  {
    // Threshold unset (the default): slow ops are not counted or logged.
    RegenServer server(ServeOptions{});
    RegisterBoth(server);
    const uint64_t before = slow_ops->value();
    auto sid = server.OpenSession(SessionRequest("alpha"));
    ASSERT_TRUE(sid.ok());
    EXPECT_TRUE(server.CloseSession(*sid).ok());
    EXPECT_EQ(slow_ops->value(), before);
  }
  {
    // Threshold below the stall: the open trips the slow-op log.
    ServeOptions options;
    options.slow_op_ms = 10;
    RegenServer server(options);
    RegisterBoth(server);
    const uint64_t before = slow_ops->value();
    auto sid = server.OpenSession(SessionRequest("alpha"));
    ASSERT_TRUE(sid.ok());
    EXPECT_GE(slow_ops->value(), before + 1);
    // A fast op under the same threshold stays quiet: the second open hits
    // the summary cache, skipping the armed load failpoint entirely.
    const uint64_t after_open = slow_ops->value();
    auto sid2 = server.OpenSession(SessionRequest("alpha"));
    ASSERT_TRUE(sid2.ok());
    EXPECT_EQ(slow_ops->value(), after_open);
    EXPECT_TRUE(server.CloseSession(*sid).ok());
    EXPECT_TRUE(server.CloseSession(*sid2).ok());
  }
  ASSERT_TRUE(Failpoint::ArmFromString("serve/summary_load=off").ok());
}

TEST_F(ServeTest, LateJoinerCatchesUpWithoutDisturbingTheGroup) {
  ServeOptions options;
  options.max_inflight = 1;
  options.batch_rows = 4096;  // default shared_scan_chunks = 4 slots
  RegenServer server(options);
  RegisterBoth(server);
  const int r = env_.schema.RelationIndex("R");
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = r;
  auto a = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(a.ok());
  std::vector<Value> rows_a, rows_b;
  RowBlock block;
  // The early cursor runs alone (private path) well past the slot ring.
  for (int i = 0; i < 8; ++i) {
    auto batch = server.NextBatch(*sid, *a, std::move(block));
    ASSERT_TRUE(batch.ok() && !batch->done);
    AppendRows(batch->rows, &rows_a);
    block = std::move(batch->rows);
  }
  // A latecomer joins at rank 0: its catch-up chunks are behind the
  // group frontier and long since outside the ring, so they regenerate —
  // counted as catch-up batches — while the leader streams on unperturbed.
  auto b = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(b.ok());
  for (;;) {
    auto batch_a = server.NextBatch(*sid, *a, std::move(block));
    ASSERT_TRUE(batch_a.ok());
    if (!batch_a->done) AppendRows(batch_a->rows, &rows_a);
    auto batch_b = server.NextBatch(*sid, *b, std::move(batch_a->rows));
    ASSERT_TRUE(batch_b.ok());
    if (!batch_b->done) AppendRows(batch_b->rows, &rows_b);
    block = std::move(batch_b->rows);
    if (batch_a->done && batch_b->done) break;
  }
  EXPECT_EQ(rows_a, rows_b);
  std::vector<Value> expected;
  TupleGenerator gen(summary_);
  gen.Scan(r, [&](const Row& row) {
    expected.insert(expected.end(), row.begin(), row.end());
  });
  EXPECT_EQ(rows_a, expected);
  EXPECT_GT(server.stats().catch_up_batches, 0u);
}

TEST_F(ServeTest, MemberCancelDetachesWithoutDisturbingTheGroup) {
  ServeOptions options;
  options.max_inflight = 4;
  options.batch_rows = 2048;
  RegenServer server(options);
  RegisterBoth(server);

  // Solo reference for spec 0.
  std::vector<uint64_t> reference(3);
  {
    ServeOptions solo;
    solo.shared_scan = false;
    RegenServer ref_server(solo);
    RegisterBoth(ref_server);
    for (int c = 0; c < 3; ++c) {
      std::string error;
      reference[c] = RunSharedClient(ref_server, env_, c, &error);
      ASSERT_EQ(error, "");
    }
  }

  // Three members; the middle one is cancelled mid-stream and must unwind
  // with kCancelled while the survivors finish byte-identically.
  std::atomic<uint64_t> victim_sid{0};
  std::atomic<int> victim_batches{0};
  std::atomic<bool> cancel_issued{false};
  std::vector<uint64_t> hashes(3, 0);
  std::vector<std::string> errors(3);
  Status victim_status;
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      if (c != 1) {
        hashes[c] = RunSharedClient(server, env_, c, &errors[c]);
        return;
      }
      auto sid = server.OpenSession(SessionRequest("alpha"));
      ASSERT_TRUE(sid.ok());
      victim_sid.store(sid->id);
      auto cid = server.OpenCursor(*sid, SharedSpec(env_, 1));
      ASSERT_TRUE(cid.ok());
      RowBlock block;
      for (;;) {
        // Pause after the second batch until the cancel has landed, so the
        // terminal kCancelled is observed mid-stream deterministically.
        if (victim_batches.load() == 2) {
          while (!cancel_issued.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
        auto batch = server.NextBatch(*sid, *cid, std::move(block));
        if (!batch.ok()) {
          victim_status = batch.status();
          break;
        }
        if (batch->done) break;
        block = std::move(batch->rows);
        victim_batches.fetch_add(1);
      }
      EXPECT_TRUE(server.CloseSession(*sid).ok());
    });
  }
  while (victim_batches.load() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(server.CancelSession(SessionHandle{victim_sid.load()}).ok());
  cancel_issued.store(true);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(victim_status.code(), StatusCode::kCancelled);
  EXPECT_EQ(hashes[0], reference[0]);
  EXPECT_EQ(hashes[2], reference[2]);
  EXPECT_GE(server.stats().cancelled_requests, 1u);
}

TEST_F(ServeTest, SharedScanSurvivesEvictionMidGroup) {
  ServeOptions options;
  options.max_inflight = 1;
  options.cache_bytes = summary_bytes_ + 64;  // room for one summary only
  options.batch_rows = 4096;
  RegenServer server(options);
  RegisterBoth(server);
  const int r = env_.schema.RelationIndex("R");
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = r;
  auto a = server.OpenCursor(*sid, spec);
  auto b = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<Value> rows_a, rows_b;
  RowBlock block;
  const auto step = [&](CursorHandle cid, std::vector<Value>* rows,
                        bool* more) {
    auto batch = server.NextBatch(*sid, cid, std::move(block));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    *more = !batch->done;
    if (*more) AppendRows(batch->rows, rows);
    block = std::move(batch->rows);
  };
  bool more_a = true;
  bool more_b = true;
  for (int i = 0; i < 3; ++i) {
    step(*a, &rows_a, &more_a);
    step(*b, &rows_b, &more_b);
  }
  // Foreign traffic evicts alpha's summary out from under the live group.
  auto beta = server.OpenSession(SessionRequest("beta"));
  ASSERT_TRUE(beta.ok());
  auto beta_cursor = server.OpenCursor(*beta, spec);
  ASSERT_TRUE(beta_cursor.ok());
  auto beta_batch = server.NextBatch(*beta, *beta_cursor, std::move(block));
  ASSERT_TRUE(beta_batch.ok() && !beta_batch->done);
  block = std::move(beta_batch->rows);
  EXPECT_GE(server.stats().evictions, 1u);
  // The group's chunks are pure functions of (summary bytes, rank range):
  // reload is invisible, streams stay byte-identical.
  for (;;) {
    step(*a, &rows_a, &more_a);
    step(*b, &rows_b, &more_b);
    if (!more_a && !more_b) break;
  }
  EXPECT_EQ(rows_a, rows_b);
  std::vector<Value> expected;
  TupleGenerator gen(summary_);
  gen.Scan(r, [&](const Row& row) {
    expected.insert(expected.end(), row.begin(), row.end());
  });
  EXPECT_EQ(rows_a, expected);
}

// ---- summary store --------------------------------------------------------

TEST_F(ServeTest, StoreEvictsLeastRecentlyUsed) {
  MetricScope scope("serve");
  SummaryStore store(scope, 2 * summary_bytes_ + 128);  // fits two summaries
  ASSERT_TRUE(store.Register("a", path_).ok());
  ASSERT_TRUE(store.Register("b", path_).ok());
  ASSERT_TRUE(store.Register("c", path_).ok());

  ASSERT_TRUE(store.Acquire("a").ok());  // load a
  ASSERT_TRUE(store.Acquire("b").ok());  // load b
  EXPECT_EQ(store.stats().resident, 2u);
  ASSERT_TRUE(store.Acquire("c").ok());  // load c -> evicts a (LRU)
  {
    const SummaryStore::Stats s = store.stats();
    EXPECT_EQ(s.resident, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.misses, 3u);
  }
  ASSERT_TRUE(store.Acquire("b").ok());  // still resident: a hit
  EXPECT_EQ(store.stats().hits, 1u);
  ASSERT_TRUE(store.Acquire("a").ok());  // evicted above: a miss, evicts c
  {
    const SummaryStore::Stats s = store.stats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.resident, 2u);
  }
}

TEST_F(ServeTest, StoreNeverEvictsPinnedEntries) {
  MetricScope scope("serve");
  SummaryStore store(scope, /*cache_bytes=*/1);  // nothing fits
  ASSERT_TRUE(store.Register("a", path_).ok());
  ASSERT_TRUE(store.Register("b", path_).ok());
  auto a = store.Acquire("a");
  ASSERT_TRUE(a.ok());
  auto b = store.Acquire("b");
  ASSERT_TRUE(b.ok());
  // Both pinned: the cache overcommits rather than evicting in-use data.
  EXPECT_EQ(store.stats().resident, 2u);
  EXPECT_EQ(store.stats().evictions, 0u);
  EXPECT_GT(a->summary().ByteSize(), 0u);
  // A second acquire of a pinned id must share the entry: generator
  // pointers stay stable while any lease is live.
  auto b2 = store.Acquire("b");
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(&b->generator(), &b2->generator());
  { auto drop = std::move(*b2); }
  { auto drop = std::move(*a); }  // release a -> immediately evictable
  EXPECT_EQ(store.stats().evictions, 1u);
  { auto drop = std::move(*b); }
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_EQ(store.stats().resident, 0u);
  EXPECT_EQ(store.stats().cached_bytes, 0u);
}

TEST_F(ServeTest, StoreConcurrentAcquireSingleLoad) {
  MetricScope scope("serve");
  SummaryStore store(scope, 64ull << 20);
  ASSERT_TRUE(store.Register("a", path_).ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto lease = store.Acquire("a");
        if (!lease.ok() || lease->generator().RowCount(0) == 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // All concurrent first acquires collapsed onto one disk load.
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 159u);
}

// ---- scheduler ------------------------------------------------------------

TEST(FairSchedulerTest, WindowBoundsConcurrentWork) {
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/2);
  std::atomic<int> inflight{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> admit_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const Status admitted = scheduler.Admit(static_cast<uint64_t>(t), [&] {
          const int now = inflight.fetch_add(1) + 1;
          int seen = max_seen.load();
          while (now > seen && !max_seen.compare_exchange_weak(seen, now)) {
          }
          // Hold the slot long enough that the other five threads pile up
          // behind the 2-wide window, even on a single-core machine.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          inflight.fetch_sub(1);
        });
        if (!admitted.ok()) admit_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(max_seen.load(), 2);
  EXPECT_EQ(admit_failures.load(), 0);  // no scope, no bound: all admitted
  EXPECT_GT(scheduler.admission_waits(), 0u);
}

TEST(FairSchedulerTest, QueueBoundShedsExcessWaiters) {
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/1, /*max_queued=*/2);
  std::mutex gate;
  gate.lock();  // the first admitted task blocks, wedging the window
  std::atomic<int> shed{0};
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const Status admitted = scheduler.Admit(static_cast<uint64_t>(t), [&] {
        ran.fetch_add(1);
        gate.lock();  // first holder blocks until the main thread unlocks
        gate.unlock();
      });
      if (admitted.code() == StatusCode::kResourceExhausted) {
        shed.fetch_add(1);
      }
    });
  }
  // Window (1) + queue (2) fill; the rest must fast-reject.
  while (shed.load() < 5) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  gate.unlock();
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shed.load(), 5);
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(scheduler.shed(), 5u);
  EXPECT_EQ(scheduler.queued(), 0);
}

TEST(FairSchedulerTest, CancelledWaiterLeavesTheQueue) {
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/1);
  std::mutex gate;
  gate.lock();
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    const Status admitted = scheduler.Admit(1, [&] {
      holding.store(true);
      gate.lock();
      gate.unlock();
    });
    EXPECT_TRUE(admitted.ok());
  });
  // Wait until the holder owns the window.
  while (!holding.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  CancelToken token;
  std::thread waiter([&] {
    bool ran = false;
    const Status admitted = scheduler.Admit(
        2, [&] { ran = true; }, CancelScope(&token, Deadline::Infinite()));
    EXPECT_EQ(admitted.code(), StatusCode::kCancelled);
    EXPECT_FALSE(ran);
  });
  while (scheduler.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  token.Cancel();
  scheduler.Kick();
  waiter.join();
  EXPECT_EQ(scheduler.queued(), 0);
  gate.unlock();
  holder.join();
  scheduler.Drain();  // nothing left: returns immediately, no deadlock
}

TEST(FairSchedulerTest, DeadlineExpiryRejectsQueuedWaiter) {
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/1);
  std::mutex gate;
  gate.lock();
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    const Status admitted = scheduler.Admit(1, [&] {
      holding.store(true);
      gate.lock();
      gate.unlock();
    });
    EXPECT_TRUE(admitted.ok());
  });
  while (!holding.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const Status admitted = scheduler.Admit(
      2, [] {}, CancelScope(nullptr, Deadline::After(20)));
  EXPECT_EQ(admitted.code(), StatusCode::kDeadlineExceeded);
  gate.unlock();
  holder.join();
}

TEST(FairSchedulerTest, ChargedDebtYieldsTurnsWithoutIdling) {
  // Shared-scan accounting: a session charged for a generation pass it got
  // for free yields its next turn to a waiting peer — but debt must never
  // idle the window when the debtor is the only waiter.
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/1);

  // Alone in the queue, a debtor is granted immediately despite its debt.
  scheduler.Charge(7, 2);
  EXPECT_EQ(scheduler.charged(), 2u);
  bool ran = false;
  ASSERT_TRUE(scheduler.Admit(7, [&] { ran = true; }).ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(scheduler.debt_skips(), 0u);

  // Wedge the window, queue the debtor (7) and a peer (8), then release:
  // the rotation reaches 7 first, spends one debt unit skipping it, and
  // grants 8 — so 8 finishes before 7.
  std::mutex gate;
  gate.lock();
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    ASSERT_TRUE(scheduler
                    .Admit(5,
                           [&] {
                             holding.store(true);
                             gate.lock();
                             gate.unlock();
                           })
                    .ok());
  });
  while (!holding.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::mutex order_mu;
  std::vector<uint64_t> order;
  const auto client = [&](uint64_t session) {
    ASSERT_TRUE(scheduler
                    .Admit(session,
                           [&, session] {
                             std::lock_guard<std::mutex> lock(order_mu);
                             order.push_back(session);
                           })
                    .ok());
  };
  std::thread t7([&] { client(7); });
  std::thread t8([&] { client(8); });
  while (scheduler.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  gate.unlock();
  holder.join();
  t7.join();
  t8.join();
  EXPECT_EQ(order, (std::vector<uint64_t>{8, 7}));
  EXPECT_EQ(scheduler.debt_skips(), 1u);
  // The remaining debt unit is dropped with the session.
  scheduler.ForgetSession(7);
}

// ---- QoS: priority + rate limits (docs/serve.md "QoS") --------------------

TEST(FairSchedulerTest, PriorityWinsTheRotationUnderContention) {
  // Wedge the window with session 5, queue a priority-1 waiter (7) and a
  // priority-4 waiter (8), then release. The rotation resumes at 7, but its
  // credit (1) is below the grant cost (maxp = 4), so it is skipped and 8 is
  // granted first — deterministically, despite 7 being first in id order.
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/1);
  scheduler.SetSessionQos(7, SessionQos{/*priority=*/1, /*rate=*/0});
  scheduler.SetSessionQos(8, SessionQos{/*priority=*/4, /*rate=*/0});
  std::mutex gate;
  gate.lock();
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    ASSERT_TRUE(scheduler
                    .Admit(5,
                           [&] {
                             holding.store(true);
                             gate.lock();
                             gate.unlock();
                           })
                    .ok());
  });
  while (!holding.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::mutex order_mu;
  std::vector<uint64_t> order;
  const auto client = [&](uint64_t session) {
    ASSERT_TRUE(scheduler
                    .Admit(session,
                           [&, session] {
                             std::lock_guard<std::mutex> lock(order_mu);
                             order.push_back(session);
                           })
                    .ok());
  };
  std::thread t7([&] { client(7); });
  std::thread t8([&] { client(8); });
  while (scheduler.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  gate.unlock();
  holder.join();
  t7.join();
  t8.join();
  EXPECT_EQ(order, (std::vector<uint64_t>{8, 7}));
  EXPECT_GE(scheduler.priority_skips(), 1u);
  scheduler.ForgetSession(7);
  scheduler.ForgetSession(8);
}

TEST(FairSchedulerTest, RateLimitThrottlesAndRefills) {
  // A session that overdraws its token bucket blocks in Admit until the
  // continuous refill clears the deficit — even with the window idle (the
  // rate limit is absolute, unlike priority/debt which are relative).
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/1);
  scheduler.SetSessionQos(1, SessionQos{/*priority=*/1, /*rate=*/1000});
  // Burn the full one-second burst plus a 100-row deficit (~100ms refill).
  scheduler.SpendTokens(1, 1100);
  EXPECT_TRUE(scheduler.SessionThrottled(1));
  const auto start = std::chrono::steady_clock::now();
  bool ran = false;
  ASSERT_TRUE(scheduler.Admit(1, [&] { ran = true; }).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(ran);
  EXPECT_GE(elapsed.count(), 50);
  EXPECT_GE(scheduler.rate_deferrals(), 1u);
  EXPECT_FALSE(scheduler.SessionThrottled(1));
}

TEST(FairSchedulerTest, ThrottledSessionYieldsToUnthrottledPeer) {
  // With the window wedged and two waiters — 7 throttled, 8 not — the grant
  // loop defers 7 and runs 8 first, whatever the rotation order.
  MetricScope scope("serve");
  FairScheduler scheduler(scope, /*max_inflight=*/1);
  scheduler.SetSessionQos(7, SessionQos{/*priority=*/1, /*rate=*/1000});
  scheduler.SpendTokens(7, 1100);
  std::mutex gate;
  gate.lock();
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    ASSERT_TRUE(scheduler
                    .Admit(5,
                           [&] {
                             holding.store(true);
                             gate.lock();
                             gate.unlock();
                           })
                    .ok());
  });
  while (!holding.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::mutex order_mu;
  std::vector<uint64_t> order;
  const auto client = [&](uint64_t session) {
    ASSERT_TRUE(scheduler
                    .Admit(session,
                           [&, session] {
                             std::lock_guard<std::mutex> lock(order_mu);
                             order.push_back(session);
                           })
                    .ok());
  };
  std::thread t7([&] { client(7); });
  std::thread t8([&] { client(8); });
  while (scheduler.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  gate.unlock();
  holder.join();
  t7.join();
  t8.join();
  EXPECT_EQ(order, (std::vector<uint64_t>{8, 7}));
  EXPECT_GE(scheduler.rate_deferrals(), 1u);
  scheduler.ForgetSession(7);
  scheduler.ForgetSession(8);
}

TEST_F(ServeTest, RateLimitedStreamIsSlowerButByteIdentical) {
  // The QoS knobs ride OpenSessionRequest: a rate-limited session streams
  // the same bytes, just later. 30k rows at 20k rows/s = a 20k burst free
  // and 10k rows paced (~500ms); the unlimited control takes ~no time.
  const int r = env_.schema.RelationIndex("R");
  CursorSpec spec;
  spec.relation = r;
  spec.end_rank = 30000;
  const auto stream = [&](RegenServer& server, SessionHandle sid,
                          std::vector<Value>* out) {
    auto cid = server.OpenCursor(sid, spec);
    ASSERT_TRUE(cid.ok());
    RowBlock block;
    for (;;) {
      auto batch = server.NextBatch(sid, *cid, std::move(block));
      ASSERT_TRUE(batch.ok());
      if (batch->done) break;
      AppendRows(batch->rows, out);
      block = std::move(batch->rows);
    }
  };
  RegenServer server{ServeOptions{}};
  RegisterBoth(server);

  std::vector<Value> unlimited;
  auto control = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(control.ok());
  stream(server, *control, &unlimited);
  ASSERT_TRUE(server.CloseSession(*control).ok());

  OpenSessionRequest limited_request = SessionRequest("alpha");
  limited_request.rate_limit_rows_per_sec = 20000;
  auto limited = server.OpenSession(limited_request);
  ASSERT_TRUE(limited.ok());
  std::vector<Value> paced;
  const auto start = std::chrono::steady_clock::now();
  stream(server, *limited, &paced);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(server.CloseSession(*limited).ok());

  EXPECT_EQ(paced, unlimited);
  EXPECT_GE(elapsed.count(), 250);  // lenient: ~500ms nominal pacing
  EXPECT_GE(server.stats().rate_deferrals, 1u);
}

// ---- error paths ----------------------------------------------------------

TEST_F(ServeTest, ErrorPaths) {
  RegenServer server{ServeOptions{}};
  RegisterBoth(server);
  EXPECT_EQ(server.RegisterSummary("alpha", path_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.OpenSession(SessionRequest("nope")).status().code(),
            StatusCode::kNotFound);

  const std::string corrupt = (dir_ / "corrupt.summary").string();
  std::FILE* f = std::fopen(corrupt.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("garbage!", 1, 8, f);
  std::fclose(f);
  ASSERT_TRUE(server.RegisterSummary("corrupt", corrupt).ok());
  EXPECT_EQ(server.OpenSession(SessionRequest("corrupt")).status().code(),
            StatusCode::kIoError);

  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec bad_rel;
  bad_rel.relation = 99;
  EXPECT_EQ(server.OpenCursor(*sid, bad_rel).status().code(),
            StatusCode::kInvalidArgument);
  CursorSpec bad_filter;
  bad_filter.relation = 0;
  bad_filter.filter = PredicateOf(AtomRange(17, 0, 5));
  EXPECT_EQ(server.OpenCursor(*sid, bad_filter).status().code(),
            StatusCode::kInvalidArgument);
  CursorSpec bad_proj;
  bad_proj.relation = 0;
  bad_proj.projection = {0, 42};
  EXPECT_EQ(server.OpenCursor(*sid, bad_proj).status().code(),
            StatusCode::kInvalidArgument);
  // Every index is in range, but one more entry than the relation has
  // attributes is refused; exactly as many, repeats included, is fine.
  const int width = env_.schema.relation(0).num_attributes();
  CursorSpec long_proj;
  long_proj.relation = 0;
  long_proj.projection.assign(width + 1, 0);
  EXPECT_EQ(server.OpenCursor(*sid, long_proj).status().code(),
            StatusCode::kInvalidArgument);
  long_proj.projection.pop_back();
  EXPECT_TRUE(server.OpenCursor(*sid, long_proj).ok());
  // The filter limit counts intervals summed over every atom: n intervals
  // over column 1 of S, split across two conjuncts.
  const auto filter_of = [](int64_t n) {
    std::vector<Interval> even, odd;
    for (int64_t i = 0; i < n; ++i) {
      (i % 2 == 0 ? even : odd).push_back(Interval(2 * i, 2 * i + 1));
    }
    return PredicateOf(Atom{1, IntervalSet(even)})
        .Or(PredicateOf(Atom{1, IntervalSet(odd)}));
  };
  CursorSpec long_filter;
  long_filter.relation = 0;
  long_filter.filter = filter_of(CursorSpec::kMaxFilterIntervals + 1);
  EXPECT_EQ(server.OpenCursor(*sid, long_filter).status().code(),
            StatusCode::kInvalidArgument);
  long_filter.filter = filter_of(CursorSpec::kMaxFilterIntervals);
  auto at_limit = server.OpenCursor(*sid, long_filter);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_TRUE(server.NextBatch(*sid, *at_limit).ok());
  EXPECT_EQ(server.NextBatch(*sid, CursorHandle{12345}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.Lookup(*sid, 0, int64_t{1} << 40).status().code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(server.CloseSession(*sid).ok());
  EXPECT_EQ(server.CloseSession(*sid).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hydra
