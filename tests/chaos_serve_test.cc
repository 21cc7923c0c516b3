// Chaos harness for the dynamic-regeneration service (docs/robustness.md):
// the fig_serve-style mixed workload runs under a seeded random failpoint
// schedule — injected load errors and scheduler-grant delays — plus
// cancellation, deadlines, shedding, and graceful shutdown. The invariants
// under fault:
//
//   * every client finishes with OK or a clean failure-domain Status —
//     no crash, no deadlock (ctest TIMEOUT guards), no leak (ASan/TSan
//     jobs run this test in CI);
//   * a stream that succeeds after faults + retries is byte-identical to
//     the fault-free run — faults may change pacing, never content.
//
// The schedule seed comes from HYDRA_CHAOS_SEED (fixed default), so a CI
// failure reproduces locally by exporting the printed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "hydra/regenerator.h"
#include "hydra/summary_io.h"
#include "hydra/tuple_generator.h"
#include "net/client.h"
#include "net/net_server.h"
#include "serve/serve_api.h"
#include "serve/server.h"
#include "workload/toy.h"

namespace hydra {
namespace {

// A session request for `summary_id`, every other field at its default.
OpenSessionRequest SessionRequest(std::string summary_id) {
  OpenSessionRequest request;
  request.summary_id = std::move(summary_id);
  return request;
}

uint64_t ChaosSeed() {
  const char* env = std::getenv("HYDRA_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260807;  // fixed default: every CI run replays one schedule
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

// Hashes a block's logical rows in row-major order (layout-independent).
uint64_t HashBlock(uint64_t h, const RowBlock& block) {
  Row row(block.num_columns());
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    block.CopyRowTo(r, row.data());
    h = HashValues(h, row.data(), block.num_columns());
  }
  return h;
}

bool IsCleanFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
    case StatusCode::kIoError:
      return true;
    default:
      return false;
  }
}

class ChaosServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoint::DisarmAll();
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_chaos_" + std::to_string(::getpid()));
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
  void TearDown() override {
    Failpoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::string path_;
  ToyEnvironment env_;
  DatabaseSummary summary_;
  uint64_t summary_bytes_ = 0;
};

// ---- the mixed workload ---------------------------------------------------
//
// Same shape as serve_test / fig_serve: item c's stream depends only on c,
// so a chaos run's successful items must hash-match the fault-free run.

constexpr int kNumItems = 16;

bool IsCursorItem(int c) { return c % 3 == 0; }

// Cursor item c streams R's ranks [c * 4500, c * 4500 + 9000), so the
// windows spread over all of R's summary runs, through a 200-wide S_fk
// filter placed to hold the S_fk value at the window's first rank: every
// window streams rows.
CursorSpec ItemCursor(const ToyEnvironment& env,
                      const DatabaseSummary& summary, int c) {
  CursorSpec spec;
  spec.relation = env.schema.RelationIndex("R");
  spec.begin_rank = c * 4500;
  spec.end_rank = spec.begin_rank + 9000;
  Row first;
  TupleGenerator(summary).GetTuple(spec.relation, spec.begin_rank, &first);
  const int s_fk = env.schema.relation(spec.relation).AttrIndex("S_fk");
  const int64_t lo = std::max<int64_t>(0, first[s_fk] - (c * 37) % 200);
  spec.filter = PredicateOf(AtomRange(s_fk, lo, lo + 200));
  spec.projection = {0, s_fk};
  return spec;
}

struct ItemResult {
  bool ok = false;
  uint64_t hash = 0;
  Status error;  // meaningful when !ok
};

ItemResult RunItem(RegenServer& server, const ToyEnvironment& env,
                   const DatabaseSummary& summary, int c) {
  ItemResult result;
  const auto fail = [&](const Status& s) {
    result.ok = false;
    result.error = s;
    return result;
  };
  auto sid = server.OpenSession(SessionRequest(c % 2 == 0 ? "alpha" : "beta"));
  if (!sid.ok()) return fail(sid.status());
  uint64_t h = kFnvSeed;
  if (IsCursorItem(c)) {
    auto cid = server.OpenCursor(*sid, ItemCursor(env, summary, c));
    if (!cid.ok()) return fail(cid.status());
    RowBlock block;
    for (;;) {
      auto batch = server.NextBatch(*sid, *cid, std::move(block));
      if (!batch.ok()) return fail(batch.status());
      if (batch->done) break;
      h = HashBlock(h, batch->rows);
      block = std::move(batch->rows);
    }
  } else if (c % 3 == 1) {
    const int rel = env.schema.RelationIndex(c % 2 == 0 ? "S" : "T");
    const int64_t rows = c % 2 == 0 ? 700 : 1500;
    for (int i = 0; i < 100; ++i) {
      auto row = server.Lookup(*sid, rel, (i * 97 + c * 13) % rows);
      if (!row.ok()) return fail(row.status());
      h = HashValues(h, row->data(), static_cast<int64_t>(row->size()));
    }
  } else {
    auto aqp = server.ExecuteQuery(*sid, env.query);
    if (!aqp.ok()) return fail(aqp.status());
    for (const AqpStep& step : aqp->steps) {
      h = HashValues(h, reinterpret_cast<const Value*>(&step.cardinality), 1);
    }
  }
  (void)server.CloseSession(*sid);
  result.ok = true;
  result.hash = h;
  return result;
}

std::vector<ItemResult> RunClients(RegenServer& server,
                                   const ToyEnvironment& env,
                                   const DatabaseSummary& summary,
                                   int clients) {
  std::vector<ItemResult> results(kNumItems);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (int c = t; c < kNumItems; c += clients) {
        results[c] = RunItem(server, env, summary, c);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return results;
}

ServeOptions ChaosOptions(uint64_t summary_bytes) {
  ServeOptions options;
  options.max_inflight = 4;
  options.cache_bytes = summary_bytes + 64;  // one summary: constant churn
  options.batch_rows = 700;
  options.load_retries = 4;
  options.load_retry_base_ms = 1;
  options.load_retry_max_ms = 4;
  return options;
}

// ---- chaos schedules ------------------------------------------------------

// The mixed workload's storm: transient load errors (within the retry
// budget, so loads recover) and grant delays stretching held slots. All
// probabilistic decisions hash off the seed. No serving path starts a pool
// task, so a thread_pool/dispatch arm would never fire. Shared-chunk fills
// are no arm here either: this workload forms no scan group at all in a few
// percent of runs (SharedScanSurvivesSeededChunkFaultSchedule storms them
// in lockstep instead).
std::string StormSchedule(uint64_t seed) {
  return "serve/summary_load=error(UNAVAILABLE,p=0.4,seed=" +
         std::to_string(seed) +
         ");serve/grant=delay(1,p=0.1,seed=" + std::to_string(seed + 1) +
         ")";
}

// Every point StormSchedule arms. A storm must hit each of them, so an arm
// that no serving path reaches any more cannot go dead unnoticed.
const char* const kStormPoints[] = {"serve/summary_load", "serve/grant"};

std::vector<uint64_t> StormHits() {
  std::vector<uint64_t> hits;
  for (const char* name : kStormPoints) {
    const Failpoint* point = Failpoint::Find(name);
    hits.push_back(point == nullptr ? 0 : point->hits());
  }
  return hits;
}

void ExpectEveryStormPointHit(const std::vector<uint64_t>& before) {
  const std::vector<uint64_t> after = StormHits();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_GT(after[i], before[i]) << kStormPoints[i] << " was never hit";
  }
}

TEST_F(ChaosServeTest, MixedWorkloadSurvivesSeededFaultSchedule) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("HYDRA_CHAOS_SEED=" + std::to_string(seed));

  // Fault-free reference.
  std::vector<ItemResult> reference;
  {
    RegenServer server(ChaosOptions(summary_bytes_));
    ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
    ASSERT_TRUE(server.RegisterSummary("beta", path_).ok());
    reference = RunClients(server, env_, summary_, /*clients=*/8);
    for (int c = 0; c < kNumItems; ++c) {
      ASSERT_TRUE(reference[c].ok)
          << "fault-free item " << c << ": " << reference[c].error.ToString();
      if (IsCursorItem(c)) {
        EXPECT_NE(reference[c].hash, kFnvSeed)
            << "fault-free cursor item " << c << " streamed no row";
      }
    }
  }

  // Chaos run under the seeded storm.
  {
    RegenServer server(ChaosOptions(summary_bytes_));
    ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
    ASSERT_TRUE(server.RegisterSummary("beta", path_).ok());
    const std::vector<uint64_t> hits_before = StormHits();
    ASSERT_TRUE(Failpoint::ArmFromString(StormSchedule(seed)).ok());
    const std::vector<ItemResult> chaos = RunClients(server, env_, summary_, 8);
    Failpoint::DisarmAll();
    ExpectEveryStormPointHit(hits_before);

    int succeeded = 0;
    for (int c = 0; c < kNumItems; ++c) {
      if (chaos[c].ok) {
        ++succeeded;
        // Faults + retries may change pacing, never content.
        EXPECT_EQ(chaos[c].hash, reference[c].hash)
            << "item " << c << " diverged under chaos";
      } else {
        EXPECT_TRUE(IsCleanFailure(chaos[c].error))
            << "item " << c
            << " failed uncleanly: " << chaos[c].error.ToString();
      }
    }
    // p=0.4 with 4 retries: (almost) every load recovers; the workload is
    // expected to mostly succeed, not merely fail cleanly.
    EXPECT_GT(succeeded, 0);
    const ServeStats stats = server.stats();
    EXPECT_GT(stats.load_retries, 0u);
  }
}

TEST_F(ChaosServeTest, MetricInvariantsHoldUnderFaultStorm) {
  // The observability surface must stay internally consistent no matter
  // what the fault schedule does to pacing, retries, or group membership
  // (docs/observability.md):
  //
  //   * every served batch is covered by an admission grant or a shared-
  //     chunk hit — the fast path is the only grant-free serving;
  //   * a reaped session is counted exactly once, even when kill paths
  //     race; the snapshot stays deterministic and parseable throughout.
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("HYDRA_CHAOS_SEED=" + std::to_string(seed));

  RegenServer server(ChaosOptions(summary_bytes_));
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  ASSERT_TRUE(server.RegisterSummary("beta", path_).ok());
  const std::vector<uint64_t> hits_before = StormHits();
  ASSERT_TRUE(Failpoint::ArmFromString(StormSchedule(seed)).ok());
  (void)RunClients(server, env_, summary_, /*clients=*/8);
  Failpoint::DisarmAll();
  ExpectEveryStormPointHit(hits_before);

  const ServeStats stats = server.stats();
  EXPECT_GT(stats.batches_served, 0u);
  EXPECT_GT(stats.admission_grants, 0u);
  EXPECT_LE(stats.batches_served,
            stats.admission_grants + stats.shared_chunk_hits);
  // Grants also cover lookups, queries, and empty fills, so they dominate
  // the other admitted-work tallies too.
  EXPECT_GE(stats.admission_grants, stats.admission_waits);
  EXPECT_GT(stats.load_retries, 0u);

  // Reap-once: orphaned wire sessions are counted exactly when their
  // connection dies — a properly closed session never double-counts.
  {
    NetServer net(&server);
    ASSERT_TRUE(net.Start().ok());
    constexpr int kConns = 3;
    std::vector<std::unique_ptr<NetClient>> clients;
    int orphaned = 0;
    for (int i = 0; i < kConns; ++i) {
      auto client = std::make_unique<NetClient>();
      ASSERT_TRUE(client->Connect("127.0.0.1", net.port()).ok());
      auto first = client->OpenSession(SessionRequest("alpha"));
      auto second = client->OpenSession(SessionRequest("beta"));
      ASSERT_TRUE(first.ok() && second.ok());
      if (i == 0) {
        ASSERT_TRUE(client->CloseSession(*first).ok());
        orphaned += 1;  // only the second rides into the disconnect
      } else {
        orphaned += 2;
      }
      clients.push_back(std::move(client));
    }
    for (auto& client : clients) client->Disconnect();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (net.stats().sessions_reaped <
               static_cast<uint64_t>(orphaned) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Exactly the orphans — never the cleanly closed session, never a
    // session twice (kill and reap race on the same connection).
    EXPECT_EQ(net.stats().sessions_reaped, static_cast<uint64_t>(orphaned));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(net.stats().sessions_reaped, static_cast<uint64_t>(orphaned));
    net.Stop();
  }

  // The snapshot survives the storm: deterministic bytes, clean parse.
  const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
  const std::string bytes = SerializeMetricsSnapshot(snapshot);
  EXPECT_EQ(bytes, SerializeMetricsSnapshot(MetricRegistry::Snapshot()));
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsSnapshot(bytes, &parsed).ok());
  EXPECT_EQ(parsed.counters.size(), snapshot.counters.size());
}

TEST_F(ChaosServeTest, TransientLoadFaultsAreRetriedToSuccess) {
  ServeOptions options = ChaosOptions(summary_bytes_);
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());

  // Exactly 2 injected failures with 4 retries budgeted: the very first
  // load must recover without the client ever seeing an error.
  ASSERT_TRUE(
      Failpoint::ArmFromString("serve/summary_load=error(UNAVAILABLE,times=2)")
          .ok());
  const ItemResult faulted = RunItem(server, env_, summary_, 0);
  ASSERT_TRUE(faulted.ok) << faulted.error.ToString();
  const ServeStats stats = server.stats();
  EXPECT_GE(stats.load_retries, 2u);

  Failpoint::DisarmAll();
  const ItemResult clean = RunItem(server, env_, summary_, 0);
  ASSERT_TRUE(clean.ok);
  EXPECT_NE(clean.hash, kFnvSeed);
  EXPECT_EQ(faulted.hash, clean.hash);  // retries never changed the stream
}

TEST_F(ChaosServeTest, ExhaustedRetriesSurfaceTheTransientError) {
  ServeOptions options = ChaosOptions(summary_bytes_);
  options.load_retries = 1;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  ASSERT_TRUE(
      Failpoint::ArmFromString("serve/summary_load=error(UNAVAILABLE,times=5)")
          .ok());
  // 1 retry against 5 scheduled failures: the open fails, cleanly.
  EXPECT_EQ(server.OpenSession(SessionRequest("alpha")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().load_retries, 1u);
}

// ---- shared-scan faults ---------------------------------------------------

TEST_F(ChaosServeTest, SharedChunkFaultFailsOnlyTheProducingGrant) {
  // serve/shared_chunk fires as a producer claims a group chunk, before any
  // generation: the requesting member sees the clean injected error, the
  // slot resets, and the very next grant (failpoint exhausted) re-produces
  // the same chunk — both members' streams stay byte-identical.
  ServeOptions options;
  options.max_inflight = 1;
  options.batch_rows = 8192;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  auto sid = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  auto a = server.OpenCursor(*sid, spec);
  auto b = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(a.ok() && b.ok());

  ASSERT_TRUE(
      Failpoint::ArmFromString("serve/shared_chunk=error(UNAVAILABLE,times=1)")
          .ok());
  RowBlock block;
  auto faulted = server.NextBatch(*sid, *a, std::move(block));
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);

  // The fault consumed no ranks: both cursors stream to completion and
  // match the direct generator scan.
  uint64_t h_a = kFnvSeed, h_b = kFnvSeed;
  block = RowBlock();
  for (;;) {
    auto batch_a = server.NextBatch(*sid, *a, std::move(block));
    ASSERT_TRUE(batch_a.ok()) << batch_a.status().ToString();
    if (!batch_a->done) h_a = HashBlock(h_a, batch_a->rows);
    auto batch_b = server.NextBatch(*sid, *b, std::move(batch_a->rows));
    ASSERT_TRUE(batch_b.ok()) << batch_b.status().ToString();
    if (!batch_b->done) h_b = HashBlock(h_b, batch_b->rows);
    block = std::move(batch_b->rows);
    if (batch_a->done && batch_b->done) break;
  }
  Failpoint::DisarmAll();
  EXPECT_EQ(h_a, h_b);

  TupleGenerator gen(summary_);
  uint64_t expected = kFnvSeed;
  gen.Scan(spec.relation, [&](const Row& r) {
    expected = HashValues(expected, r.data(), static_cast<int64_t>(r.size()));
  });
  EXPECT_EQ(h_a, expected);
}

TEST_F(ChaosServeTest, SharedScanSurvivesSeededChunkFaultSchedule) {
  // Probabilistic chunk faults + grant delays over a many-member group:
  // every member either finishes byte-identically to the fault-free stream
  // (retrying clean transient errors) or fails cleanly — and the group
  // machinery (slot re-election after a failed producer) never wedges.
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("HYDRA_CHAOS_SEED=" + std::to_string(seed));
  ServeOptions options;
  options.max_inflight = 4;
  options.batch_rows = 1024;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());

  // Fault-free reference stream hash (identity scan over R).
  uint64_t reference = kFnvSeed;
  {
    TupleGenerator gen(summary_);
    gen.Scan(env_.schema.RelationIndex("R"), [&](const Row& r) {
      reference =
          HashValues(reference, r.data(), static_cast<int64_t>(r.size()));
    });
  }

  ASSERT_TRUE(Failpoint::ArmFromString(
                  "serve/shared_chunk=error(UNAVAILABLE,p=0.1,seed=" +
                  std::to_string(seed) +
                  ");serve/grant=delay(1,p=0.05,seed=" +
                  std::to_string(seed + 1) + ")")
                  .ok());
  constexpr int kMembers = 6;
  std::vector<uint64_t> hashes(kMembers, 0);
  std::vector<std::string> errors(kMembers);
  std::vector<std::thread> members;
  for (int t = 0; t < kMembers; ++t) {
    members.emplace_back([&, t] {
      auto sid = server.OpenSession(SessionRequest("alpha"));
      if (!sid.ok()) {
        errors[t] = sid.status().ToString();
        return;
      }
      CursorSpec spec;
      spec.relation = env_.schema.RelationIndex("R");
      auto cid = server.OpenCursor(*sid, spec);
      if (!cid.ok()) {
        errors[t] = cid.status().ToString();
        return;
      }
      uint64_t h = kFnvSeed;
      RowBlock block;
      for (;;) {
        auto batch = server.NextBatch(*sid, *cid, std::move(block));
        if (!batch.ok()) {
          // Injected chunk faults are transient: retry the same batch (a
          // failed producer consumed no ranks). Anything unclean aborts.
          if (batch.status().code() == StatusCode::kUnavailable) {
            block = RowBlock();
            continue;
          }
          errors[t] = batch.status().ToString();
          return;
        }
        if (batch->done) break;
        h = HashBlock(h, batch->rows);
        block = std::move(batch->rows);
      }
      hashes[t] = h;
      (void)server.CloseSession(*sid);
    });
  }
  for (std::thread& th : members) th.join();
  Failpoint::DisarmAll();
  for (int t = 0; t < kMembers; ++t) {
    ASSERT_EQ(errors[t], "") << "member " << t;
    EXPECT_EQ(hashes[t], reference) << "member " << t << " diverged";
  }
  const ServeStats stats = server.stats();
  EXPECT_GE(stats.peak_group_fanout, 2u);
  EXPECT_GT(stats.shared_chunk_fills, 0u);
}

// ---- cancellation and deadlines -------------------------------------------

TEST_F(ChaosServeTest, CancelledSessionStopsWithinOneBatch) {
  ServeOptions options;
  options.max_inflight = 1;
  options.batch_rows = 500;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());

  OpenSessionRequest request = SessionRequest("alpha");
  request.cancel = std::make_shared<CancelToken>();
  auto sid = server.OpenSession(request);
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  auto cid = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(cid.ok());

  auto first = server.NextBatch(*sid, *cid);
  ASSERT_TRUE(first.ok() && !first->done);
  const int64_t rank_at_cancel = *server.CursorRank(*sid, *cid);

  request.cancel->Cancel();
  auto after = server.NextBatch(*sid, *cid, std::move(first->rows));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
  // Within one batch: the cursor advanced at most one grant past the
  // cancellation point (the admission check runs before any generation).
  const int64_t rank_after = *server.CursorRank(*sid, *cid);
  EXPECT_LE(rank_after, rank_at_cancel + options.batch_rows);
  EXPECT_GE(server.stats().cancelled_requests, 1u);

  // CancelSession works the same for sessions without a client token.
  auto sid2 = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid2.ok());
  ASSERT_TRUE(server.CancelSession(*sid2).ok());
  EXPECT_EQ(server.Lookup(*sid2, 0, 0).status().code(),
            StatusCode::kCancelled);
}

TEST_F(ChaosServeTest, SessionDeadlineExpiresMidStream) {
  ServeOptions options;
  options.max_inflight = 1;
  options.batch_rows = 200;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());

  OpenSessionRequest request = SessionRequest("alpha");
  request.deadline_ms = 30;
  auto sid = server.OpenSession(request);
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  auto cid = server.OpenCursor(*sid, spec);
  ASSERT_TRUE(cid.ok());

  // Stream until the deadline fires; it must fire (the sleep guarantees
  // expiry) and must surface as kDeadlineExceeded, not a hang or a crash.
  RowBlock block;
  Status terminal = Status::OK();
  for (int i = 0; i < 10000; ++i) {
    auto batch = server.NextBatch(*sid, *cid, std::move(block));
    if (!batch.ok()) {
      terminal = batch.status();
      break;
    }
    if (batch->done) break;
    block = std::move(batch->rows);
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_EQ(terminal.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server.stats().cancelled_requests, 1u);
}

TEST_F(ChaosServeTest, CancelCutsShortAnEngineQuery) {
  ServeOptions options;
  options.max_inflight = 2;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  OpenSessionRequest request = SessionRequest("alpha");
  request.cancel = std::make_shared<CancelToken>();
  request.cancel->Cancel();  // already tripped: fails immediately
  auto sid = server.OpenSession(request);
  ASSERT_TRUE(sid.ok());
  auto aqp = server.ExecuteQuery(*sid, env_.query);
  ASSERT_FALSE(aqp.ok());
  EXPECT_EQ(aqp.status().code(), StatusCode::kCancelled);
}

// ---- shedding -------------------------------------------------------------

TEST_F(ChaosServeTest, OverloadShedsCleanlyAndServedStreamsStayIdentical) {
  const uint64_t seed = ChaosSeed();
  ServeOptions options;
  options.max_inflight = 1;
  options.max_queued = 2;
  options.batch_rows = 700;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  ASSERT_TRUE(server.RegisterSummary("beta", path_).ok());

  // Grant delays make the 1-wide window a bottleneck, so the 3-deep queue
  // overflows and sheds. Served items must still hash-match fault-free
  // runs; shed items must fail with exactly kResourceExhausted.
  ASSERT_TRUE(Failpoint::ArmFromString("serve/grant=delay(2,p=0.5,seed=" +
                                       std::to_string(seed) + ")")
                  .ok());
  const std::vector<ItemResult> results =
      RunClients(server, env_, summary_, 16);
  Failpoint::DisarmAll();

  RegenServer clean_server(ChaosOptions(summary_bytes_));
  ASSERT_TRUE(clean_server.RegisterSummary("alpha", path_).ok());
  ASSERT_TRUE(clean_server.RegisterSummary("beta", path_).ok());
  for (int c = 0; c < kNumItems; ++c) {
    if (results[c].ok) {
      const ItemResult reference = RunItem(clean_server, env_, summary_, c);
      ASSERT_TRUE(reference.ok);
      if (IsCursorItem(c)) {
        EXPECT_NE(reference.hash, kFnvSeed) << "item " << c;
      }
      EXPECT_EQ(results[c].hash, reference.hash) << "item " << c;
    } else {
      EXPECT_EQ(results[c].error.code(), StatusCode::kResourceExhausted)
          << "item " << c << ": " << results[c].error.ToString();
    }
  }
}

TEST_F(ChaosServeTest, SessionCapShedsOpens) {
  ServeOptions options;
  options.max_inflight = 1;
  options.max_sessions = 2;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  auto a = server.OpenSession(SessionRequest("alpha"));
  auto b = server.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(server.OpenSession(SessionRequest("alpha")).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_GE(server.stats().shed_requests, 1u);
  ASSERT_TRUE(server.CloseSession(*a).ok());
  // Capacity freed.
  EXPECT_TRUE(server.OpenSession(SessionRequest("alpha")).ok());
}

// ---- degradation ----------------------------------------------------------

TEST_F(ChaosServeTest, OvercommitDegradesBatchSizeNotContent) {
  ServeOptions options;
  options.max_inflight = 1;
  options.cache_bytes = 1;  // every resident summary overcommits the budget
  options.batch_rows = 4096;
  options.min_degraded_batch_rows = 64;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());

  const ItemResult degraded = RunItem(server, env_, summary_, 0);
  ASSERT_TRUE(degraded.ok) << degraded.error.ToString();
  EXPECT_GT(server.stats().degraded_batches, 0u);

  RegenServer roomy(ChaosOptions(summary_bytes_));
  ASSERT_TRUE(roomy.RegisterSummary("alpha", path_).ok());
  const ItemResult reference = RunItem(roomy, env_, summary_, 0);
  ASSERT_TRUE(reference.ok);
  EXPECT_NE(reference.hash, kFnvSeed);
  EXPECT_EQ(degraded.hash, reference.hash);  // smaller quanta, same stream
}

// ---- graceful shutdown ----------------------------------------------------

TEST_F(ChaosServeTest, ShutdownUnderLoadDrainsCleanly) {
  ServeOptions options;
  options.max_inflight = 4;
  options.batch_rows = 300;
  auto server = std::make_unique<RegenServer>(options);
  ASSERT_TRUE(server->RegisterSummary("alpha", path_).ok());

  // Streams several long cursors concurrently, then shuts down mid-flight.
  std::atomic<int> batches_before_shutdown{0};
  std::atomic<bool> shutdown_started{false};
  std::atomic<int> unclean{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      auto sid = server->OpenSession(SessionRequest("alpha"));
      if (!sid.ok()) {
        if (sid.status().code() != StatusCode::kUnavailable) {
          unclean.fetch_add(1);
        }
        return;
      }
      CursorSpec spec;
      spec.relation = env_.schema.RelationIndex("R");
      auto cid = server->OpenCursor(*sid, spec);
      if (!cid.ok()) {
        unclean.fetch_add(1);
        return;
      }
      RowBlock block;
      for (;;) {
        auto batch = server->NextBatch(*sid, *cid, std::move(block));
        if (!batch.ok()) {
          // After shutdown the only acceptable terminal is kCancelled.
          if (batch.status().code() != StatusCode::kCancelled) {
            unclean.fetch_add(1);
          }
          return;
        }
        if (batch->done) return;  // finished the stream before the drain
        block = std::move(batch->rows);
        if (!shutdown_started.load(std::memory_order_relaxed)) {
          batches_before_shutdown.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Let the clients make real progress before pulling the plug.
  while (batches_before_shutdown.load(std::memory_order_relaxed) < 12) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  shutdown_started.store(true, std::memory_order_relaxed);
  ASSERT_TRUE(server->Shutdown().ok());
  // Post-drain: nothing is admitted or queued, and new opens are refused.
  EXPECT_EQ(server->OpenSession(SessionRequest("alpha")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(server->shutting_down());
  for (std::thread& th : clients) th.join();
  EXPECT_EQ(unclean.load(), 0);
  server.reset();  // double-drain via the destructor must be safe
}

// ---- wire-level faults ----------------------------------------------------
//
// The net/* failpoints (net/accept, net/read_frame, net/write_frame) kill
// live connections as if the peer or the network died mid-frame. The
// invariant mirrors the serve layer's: a client that reconnects and reopens
// its cursor at the last rank it consumed sees one byte-identical stream,
// no matter where the kills landed (docs/net.md "Resume protocol").

// Streams `spec` over TCP, reconnecting and resuming at the last consumed
// rank on every transport failure. Returns false (with `error`) on any
// non-transport failure or when the fault schedule never lets it finish.
bool StreamOverWireWithResume(int port, const CursorSpec& spec,
                              uint64_t* hash, int* drops,
                              std::string* error) {
  uint64_t h = kFnvSeed;
  CursorSpec resume = spec;
  NetClient client;
  SessionHandle sid;
  CursorHandle cid;
  bool open = false;
  RowBlock block;
  const auto transport_failure = [&](const Status& s) {
    return s.code() == StatusCode::kUnavailable && !client.connected();
  };
  for (int failures = 0; failures < 200;) {
    if (!client.connected()) {
      open = false;
      if (!client.Connect("127.0.0.1", port).ok()) {
        ++failures;
        continue;
      }
    }
    if (!open) {
      auto session = client.OpenSession(SessionRequest("alpha"));
      if (!session.ok()) {
        if (transport_failure(session.status())) {
          ++failures;
          ++*drops;
          continue;
        }
        *error = "open session: " + session.status().ToString();
        return false;
      }
      auto cursor = client.OpenCursor(*session, resume);
      if (!cursor.ok()) {
        if (transport_failure(cursor.status())) {
          ++failures;
          ++*drops;
          continue;
        }
        *error = "open cursor: " + cursor.status().ToString();
        return false;
      }
      sid = *session;
      cid = *cursor;
      open = true;
    }
    auto batch = client.NextBatch(sid, cid, std::move(block));
    if (!batch.ok()) {
      block = RowBlock();
      if (transport_failure(batch.status())) {
        ++failures;
        ++*drops;
        continue;
      }
      *error = "next batch: " + batch.status().ToString();
      return false;
    }
    if (batch->done) {
      *hash = h;
      return true;
    }
    h = HashBlock(h, batch->rows);
    resume.begin_rank = batch->rank;
    block = std::move(batch->rows);
  }
  *error = "fault schedule never let the stream finish";
  return false;
}

TEST_F(ChaosServeTest, NetKillMidStreamResumesByteIdentical) {
  ServeOptions options;
  options.max_inflight = 2;
  options.batch_rows = 1024;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  NetServer net(&server);
  ASSERT_TRUE(net.Start().ok());

  const int r = env_.schema.RelationIndex("R");
  uint64_t reference = kFnvSeed;
  {
    TupleGenerator gen(summary_);
    gen.Scan(r, [&](const Row& row) {
      reference =
          HashValues(reference, row.data(), static_cast<int64_t>(row.size()));
    });
  }

  CursorSpec spec;
  spec.relation = r;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  auto sid = client.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();
  auto cid = client.OpenCursor(*sid, spec);
  ASSERT_TRUE(cid.ok());
  uint64_t h = kFnvSeed;
  int64_t resume_rank = 0;
  RowBlock block;
  for (int i = 0; i < 3; ++i) {
    auto batch = client.NextBatch(*sid, *cid, std::move(block));
    ASSERT_TRUE(batch.ok() && !batch->done);
    h = HashBlock(h, batch->rows);
    resume_rank = batch->rank;
    block = std::move(batch->rows);
  }

  // The next response write dies on the wire: the server kills the
  // connection (reaping its session) and the client sees a transport error.
  ASSERT_TRUE(
      Failpoint::ArmFromString("net/write_frame=error(UNAVAILABLE,times=1)")
          .ok());
  auto dropped = client.NextBatch(*sid, *cid);
  Failpoint::DisarmAll();
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client.connected());

  // Reconnect, reopen at the last consumed rank: the concatenation must be
  // the one uninterrupted stream.
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  auto sid2 = client.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid2.ok());
  CursorSpec resumed = spec;
  resumed.begin_rank = resume_rank;
  auto cid2 = client.OpenCursor(*sid2, resumed);
  ASSERT_TRUE(cid2.ok());
  for (;;) {
    auto batch = client.NextBatch(*sid2, *cid2, std::move(block));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->done) break;
    h = HashBlock(h, batch->rows);
    block = std::move(batch->rows);
  }
  EXPECT_EQ(h, reference);
  EXPECT_GE(net.stats().sessions_reaped, 1u);
  net.Stop();
}

TEST_F(ChaosServeTest, NetSeededKillScheduleConvergesByteIdentical) {
  // All three wire failpoints fire probabilistically — accepts dropped,
  // reads and writes dying mid-frame — while one logical stream runs to
  // completion through reconnect-and-resume.
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("HYDRA_CHAOS_SEED=" + std::to_string(seed));
  ServeOptions options;
  options.max_inflight = 2;
  options.batch_rows = 1024;
  RegenServer server(options);
  ASSERT_TRUE(server.RegisterSummary("alpha", path_).ok());
  NetServer net(&server);
  ASSERT_TRUE(net.Start().ok());

  const int r = env_.schema.RelationIndex("R");
  uint64_t reference = kFnvSeed;
  {
    TupleGenerator gen(summary_);
    gen.Scan(r, [&](const Row& row) {
      reference =
          HashValues(reference, row.data(), static_cast<int64_t>(row.size()));
    });
  }

  ASSERT_TRUE(
      Failpoint::ArmFromString(
          "net/write_frame=error(UNAVAILABLE,p=0.08,seed=" +
          std::to_string(seed) +
          ");net/read_frame=error(UNAVAILABLE,p=0.04,seed=" +
          std::to_string(seed + 1) +
          ");net/accept=error(UNAVAILABLE,p=0.2,seed=" +
          std::to_string(seed + 2) + ")")
          .ok());
  CursorSpec spec;
  spec.relation = r;
  uint64_t h = 0;
  int drops = 0;
  std::string error;
  const bool finished =
      StreamOverWireWithResume(net.port(), spec, &h, &drops, &error);
  Failpoint::DisarmAll();
  ASSERT_TRUE(finished) << error;
  EXPECT_EQ(h, reference);
  // ~80 batches under p=0.08 write kills: the schedule virtually always
  // lands at least one drop, and every drop reaps the orphaned session.
  EXPECT_GE(drops, 1);
  EXPECT_GE(net.stats().sessions_reaped, 1u);
  EXPECT_GE(net.stats().connections_dropped, 1u);
  net.Stop();
}

}  // namespace
}  // namespace hydra
