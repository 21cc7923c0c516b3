// Tests for the TCP front end (src/net/, docs/net.md): frame-level codec
// round trips, the stable ServeErrorCode mapping, protocol hardening (torn
// frames, oversized payloads, bad magic/version, unknown opcodes, a seeded
// malformed-frame fuzz sweep — none may crash or wedge the server), session
// scoping and disconnect reaping (a request parked in admission included),
// QoS fields riding the open frame, a wire stream starting no pool task, and
// the headline contract: a NetClient stream is byte-identical to the
// in-process stream, including resume-after-drop.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "hydra/regenerator.h"
#include "hydra/summary_io.h"
#include "hydra/tuple_generator.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/wire.h"
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

uint64_t HashBlock(uint64_t h, const RowBlock& block) {
  Row row(block.num_columns());
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    block.CopyRowTo(r, row.data());
    h = HashValues(h, row.data(), block.num_columns());
  }
  return h;
}

// ---- codec unit tests (no server) ----------------------------------------

TEST(WireTest, FrameHeaderRoundTrips) {
  FrameHeader header;
  header.opcode = static_cast<uint8_t>(Opcode::kNextBatch);
  header.request_id = 0x0123456789abcdefull;
  header.payload_len = 4242;
  uint8_t bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  const FrameHeader decoded = DecodeFrameHeader(bytes);
  EXPECT_EQ(decoded.magic, kWireMagic);
  EXPECT_EQ(decoded.version, kWireVersion);
  EXPECT_EQ(decoded.opcode, header.opcode);
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.payload_len, header.payload_len);
  EXPECT_TRUE(ValidateFrameHeader(decoded).ok());
  // The magic reads "HYRA" in byte order — a recognizable prefix in pcaps.
  EXPECT_EQ(std::string(reinterpret_cast<char*>(bytes), 4), "HYRA");
}

TEST(WireTest, ValidateRejectsBadHeaders) {
  FrameHeader header;
  header.magic = 0xdeadbeef;
  EXPECT_FALSE(ValidateFrameHeader(header).ok());
  header = FrameHeader();
  header.version = kWireVersion + 1;
  EXPECT_FALSE(ValidateFrameHeader(header).ok());
  header = FrameHeader();
  header.payload_len = kMaxPayloadBytes + 1;
  EXPECT_FALSE(ValidateFrameHeader(header).ok());
}

TEST(WireTest, OpenSessionRequestRoundTripsQosFields) {
  OpenSessionRequest request = SessionRequest("alpha");
  request.deadline_ms = 1234;
  request.priority = 5;
  request.rate_limit_rows_per_sec = 9999;
  std::string buf;
  AppendOpenSessionRequest(request, &buf);
  WireReader reader(buf);
  OpenSessionRequest decoded;
  ASSERT_TRUE(ReadOpenSessionRequest(&reader, &decoded).ok());
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(decoded.summary_id, "alpha");
  EXPECT_EQ(decoded.deadline_ms, 1234);
  EXPECT_EQ(decoded.priority, 5);
  EXPECT_EQ(decoded.rate_limit_rows_per_sec, 9999);
  EXPECT_EQ(decoded.cancel, nullptr);  // in-process only, never marshalled
}

TEST(WireTest, CursorSpecAndPredicateRoundTrip) {
  CursorSpec spec;
  spec.relation = 2;
  spec.begin_rank = 1000;
  spec.end_rank = 77777;
  spec.projection = {0, 3, 1};
  spec.filter = PredicateOf(AtomRange(/*column=*/1, 40, 400));
  std::string buf;
  AppendCursorSpec(spec, &buf);
  WireReader reader(buf);
  CursorSpec decoded;
  ASSERT_TRUE(ReadCursorSpec(&reader, &decoded).ok());
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(decoded.relation, spec.relation);
  EXPECT_EQ(decoded.begin_rank, spec.begin_rank);
  EXPECT_EQ(decoded.end_rank, spec.end_rank);
  EXPECT_EQ(decoded.projection, spec.projection);
  // Re-encoding the decoded predicate must reproduce the bytes: the codec
  // is canonical for the normalized DNF representation.
  std::string again;
  AppendCursorSpec(decoded, &again);
  EXPECT_EQ(again, buf);
}

TEST(WireTest, RowBlockRoundTrips) {
  RowBlock block(3);
  block.ResizeUninitialized(100);
  for (int64_t r = 0; r < 100; ++r) {
    for (int c = 0; c < 3; ++c) block.MutableColumn(c)[r] = r * 3 + c;
  }
  std::string buf;
  AppendRowBlock(block, &buf);
  WireReader reader(buf);
  RowBlock decoded;
  ASSERT_TRUE(ReadRowBlock(&reader, &decoded).ok());
  EXPECT_TRUE(reader.done());
  ASSERT_EQ(decoded.num_columns(), 3);
  ASSERT_EQ(decoded.num_rows(), 100);
  EXPECT_EQ(HashBlock(kFnvSeed, decoded), HashBlock(kFnvSeed, block));
}

TEST(WireTest, RowBlockRejectsLyingRowCount) {
  // A header claiming more rows than the payload holds must fail cleanly
  // before any allocation sized from the lie.
  std::string buf;
  WireWriter writer(&buf);
  writer.U32(4);                    // columns
  writer.U64(1ull << 40);           // rows (absurd)
  writer.I64(1);                    // one actual value
  WireReader reader(buf);
  RowBlock decoded;
  EXPECT_EQ(ReadRowBlock(&reader, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, StatusEnvelopeRoundTrips) {
  std::string buf;
  AppendStatusEnvelope(Status::NotFound("no such cursor"), &buf);
  WireReader reader(buf);
  Status decoded;
  ASSERT_TRUE(ReadStatusEnvelope(&reader, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "no such cursor");

  buf.clear();
  AppendStatusEnvelope(Status::OK(), &buf);
  WireReader ok_reader(buf);
  ASSERT_TRUE(ReadStatusEnvelope(&ok_reader, &decoded).ok());
  EXPECT_TRUE(decoded.ok());
}

TEST(WireTest, ServeErrorCodeNumbersAreFrozen) {
  // The wire contract (docs/net.md): these numbers may never change.
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kOk), 0);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kInvalidArgument), 1);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kNotFound), 2);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kFailedPrecondition), 3);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kOutOfRange), 4);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kResourceExhausted), 5);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kInternal), 6);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kUnimplemented), 7);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kIoError), 8);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kCancelled), 9);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kDeadlineExceeded), 10);
  EXPECT_EQ(static_cast<uint16_t>(ServeErrorCode::kUnavailable), 11);

  // Every StatusCode round-trips through its wire number.
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kIoError,
        StatusCode::kCancelled, StatusCode::kDeadlineExceeded,
        StatusCode::kUnavailable}) {
    EXPECT_EQ(ToStatusCode(static_cast<uint16_t>(ToServeErrorCode(code))),
              code);
  }
  // Unknown wire values (a newer server) degrade to kInternal.
  EXPECT_EQ(ToStatusCode(60000), StatusCode::kInternal);
}

// ---- raw-socket helpers ---------------------------------------------------

// A bare TCP connection for speaking deliberately broken protocol.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Bound every read so a test failure surfaces as an assertion, not a
    // ctest timeout.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    return WriteAll(fd_, bytes.data(), bytes.size()).ok();
  }

  // Reads one whole response frame; false on EOF/timeout/invalid header.
  bool ReadFrame(FrameHeader* header, std::string* payload) {
    uint8_t raw[kFrameHeaderBytes];
    if (!ReadExact(fd_, raw, sizeof(raw)).ok()) return false;
    *header = DecodeFrameHeader(raw);
    if (!ValidateFrameHeader(*header).ok()) return false;
    payload->resize(header->payload_len);
    if (header->payload_len == 0) return true;
    return ReadExact(fd_, &(*payload)[0], payload->size()).ok();
  }

  // True when the server has closed this connection (EOF within the read
  // timeout).
  bool ServerClosed() {
    char byte;
    const ssize_t got = ::read(fd_, &byte, 1);
    return got == 0;
  }

 private:
  int fd_ = -1;
};

std::string Frame(Opcode opcode, uint64_t request_id,
                  const std::string& payload) {
  FrameHeader header;
  header.opcode = static_cast<uint8_t>(opcode);
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(payload.size());
  std::string out(kFrameHeaderBytes, '\0');
  EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(&out[0]));
  out += payload;
  return out;
}

// The value of counter / gauge `name` in `snapshot`; a test failure when
// the entry is absent.
uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const CounterSnapshot& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

int64_t GaugeValue(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const GaugeSnapshot& g : snapshot.gauges) {
    if (g.name == name) return g.value;
  }
  ADD_FAILURE() << "no gauge " << name;
  return -1;
}

// ---- served fixture -------------------------------------------------------

// This binary references every instrumented subsystem (serve, net, lp,
// generation), so their translation units link in and their namespace-scope
// metric globals must self-register before main() — the static-registration
// linkage contract of docs/observability.md. (A binary that links none of
// a subsystem's symbols legitimately drops its metrics with the TU.)
TEST(MetricsRegistration, LinkedSubsystemMetricsAreRegistered) {
  for (const char* name :
       {"serve/next_batch_us", "serve/open_session_us",
        "serve/admission_wait_us", "serve/summary_load_us", "lp/formulate_us",
        "lp/solve_us", "lp/refactorize_us", "gen/fill_us", "net/handle_us",
        "net/write_us"}) {
    EXPECT_NE(MetricRegistry::FindHistogram(name), nullptr) << name;
  }
  EXPECT_NE(MetricRegistry::FindCounter("serve/slow_ops"), nullptr);
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_net_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    env_ = MakeToyEnvironment();
    HydraRegenerator hydra(env_.schema);
    auto result = hydra.Regenerate(env_.ccs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    summary_ = std::move(result->summary);
    path_ = (dir_ / "toy.summary").string();
    ASSERT_TRUE(WriteSummary(summary_, path_).ok());

    ServeOptions options;
    options.max_inflight = 2;
    options.batch_rows = 1024;
    server_ = std::make_unique<RegenServer>(options);
    ASSERT_TRUE(server_->RegisterSummary("alpha", path_).ok());
    ASSERT_TRUE(server_->RegisterSummary("beta", path_).ok());
    net_ = std::make_unique<NetServer>(server_.get());
    ASSERT_TRUE(net_->Start().ok());
  }
  void TearDown() override {
    net_->Stop();
    net_.reset();
    server_.reset();
    std::filesystem::remove_all(dir_);
  }

  int port() const { return net_->port(); }

  // Drains `spec` through `client`, accumulating the row-stream hash.
  uint64_t StreamHash(NetClient& client, const CursorSpec& spec) {
    auto sid = client.OpenSession(SessionRequest("alpha"));
    EXPECT_TRUE(sid.ok()) << sid.status().ToString();
    auto cid = client.OpenCursor(*sid, spec);
    EXPECT_TRUE(cid.ok()) << cid.status().ToString();
    uint64_t h = kFnvSeed;
    RowBlock block;
    for (;;) {
      auto batch = client.NextBatch(*sid, *cid, std::move(block));
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok() || batch->done) break;
      h = HashBlock(h, batch->rows);
      block = std::move(batch->rows);
    }
    EXPECT_TRUE(client.CloseSession(*sid).ok());
    return h;
  }

  // The in-process reference for the same spec.
  uint64_t InProcessHash(const CursorSpec& spec) {
    auto sid = server_->OpenSession(SessionRequest("alpha"));
    EXPECT_TRUE(sid.ok());
    auto cid = server_->OpenCursor(*sid, spec);
    EXPECT_TRUE(cid.ok());
    uint64_t h = kFnvSeed;
    RowBlock block;
    for (;;) {
      auto batch = server_->NextBatch(*sid, *cid, std::move(block));
      EXPECT_TRUE(batch.ok());
      if (!batch.ok() || batch->done) break;
      h = HashBlock(h, batch->rows);
      block = std::move(batch->rows);
    }
    EXPECT_TRUE(server_->CloseSession(*sid).ok());
    return h;
  }

  std::filesystem::path dir_;
  std::string path_;
  ToyEnvironment env_;
  DatabaseSummary summary_;
  std::unique_ptr<RegenServer> server_;
  std::unique_ptr<NetServer> net_;
};

// ---- the serving contract over TCP ---------------------------------------

TEST_F(NetTest, StreamsByteIdenticalToInProcess) {
  const int r = env_.schema.RelationIndex("R");
  std::vector<CursorSpec> specs;
  {
    CursorSpec identity;
    identity.relation = r;
    specs.push_back(identity);
  }
  {
    CursorSpec filtered;
    filtered.relation = r;
    filtered.filter = PredicateOf(AtomRange(/*column=*/1, 100, 400));
    filtered.projection = {1, 2};
    filtered.begin_rank = 777;
    filtered.end_rank = 66000;
    specs.push_back(filtered);
  }
  {
    CursorSpec narrow;
    narrow.relation = env_.schema.RelationIndex("S");
    narrow.projection = {0};
    specs.push_back(narrow);
  }
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(StreamHash(client, specs[i]), InProcessHash(specs[i]))
        << "spec " << i << " diverged between wire and in-process";
  }
}

TEST_F(NetTest, PingStatsAndQosRideTheWire) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  // A rate-limited session opened over the wire is paced server-side, and
  // the QoS counters come back in the GetMetrics snapshot.
  OpenSessionRequest request = SessionRequest("alpha");
  request.rate_limit_rows_per_sec = 20000;
  request.priority = 3;
  auto sid = client.OpenSession(request);
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  spec.end_rank = 30000;  // 20k burst + 10k paced rows (~500ms)
  auto cid = client.OpenCursor(*sid, spec);
  ASSERT_TRUE(cid.ok());
  const auto start = std::chrono::steady_clock::now();
  uint64_t rows = 0;
  RowBlock block;
  for (;;) {
    auto batch = client.NextBatch(*sid, *cid, std::move(block));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->done) break;
    rows += static_cast<uint64_t>(batch->rows.num_rows());
    block = std::move(batch->rows);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(rows, 30000u);
  EXPECT_GE(elapsed.count(), 250);
  ASSERT_TRUE(client.CloseSession(*sid).ok());

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const uint64_t rows_served = CounterValue(*metrics, "serve/rows_served");
  EXPECT_GE(rows_served, 30000u);
  EXPECT_GE(CounterValue(*metrics, "serve/rate_deferrals"), 1u);
  EXPECT_EQ(rows_served, server_->stats().rows_served);
}

TEST_F(NetTest, GetMetricsIsByteConsistentWithInProcessSnapshot) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  // Drive real traffic first so the snapshot is non-trivial: histograms
  // have samples, the serve/net providers have non-zero gauges.
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  spec.end_rank = 5000;
  StreamHash(client, spec);

  // One connection, synchronous requests: when the GetMetrics response is
  // on the wire, the server has fully accounted the traffic above, and the
  // request's own footprint landed before serialization (pre-counted
  // frames_sent) or not at all (handle/write records). So the
  // wire bytes must equal a local snapshot taken right after — same
  // registry, same encoder, no tolerance.
  auto wire_bytes = client.MetricsSerialized();
  ASSERT_TRUE(wire_bytes.ok()) << wire_bytes.status().ToString();
  const std::string local_bytes =
      SerializeMetricsSnapshot(MetricRegistry::Snapshot());
  EXPECT_EQ(*wire_bytes, local_bytes);

  // And the parsed view carries the instrumentation this traffic produced.
  MetricsSnapshot snapshot;
  ASSERT_TRUE(ParseMetricsSnapshot(*wire_bytes, &snapshot).ok());
  bool saw_next_batch = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "serve/next_batch_us") {
      saw_next_batch = true;
      EXPECT_GT(h.count, 0u);
      EXPECT_GE(h.Percentile(0.99), h.Percentile(0.50));
    }
  }
  EXPECT_TRUE(saw_next_batch);
  bool saw_frames_sent = false;
  for (const auto& g : snapshot.gauges) {
    if (g.name == "net/frames_sent") {
      saw_frames_sent = true;
      // The response carrying this snapshot is itself counted (pre-counted
      // before serialization, so a scrape after N frames reads N+1).
      EXPECT_EQ(g.value,
                static_cast<int64_t>(net_->stats().frames_sent));
    }
  }
  EXPECT_TRUE(saw_frames_sent);
}

TEST_F(NetTest, HydraStatsPrintsTheLiveSnapshotAsPrometheusText) {
  // The operator CLI, run as a process against this fixture's server:
  // monotonic serve counts export as counters, frames_sent as a gauge.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  spec.end_rank = 2000;
  StreamHash(client, spec);

  const std::string command = std::string(HYDRA_STATS_BIN) + " --port " +
                              std::to_string(port()) + " --format prom";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << command;
  std::string out;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, got);
  }
  EXPECT_EQ(::pclose(pipe), 0) << command;
  EXPECT_NE(out.find("# TYPE hydra_serve_rows_served counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE hydra_net_frames_sent gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nhydra_net_frames_sent "), std::string::npos);
}

TEST_F(NetTest, DeadlineRidesTheOpenFrame) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  OpenSessionRequest request = SessionRequest("alpha");
  request.deadline_ms = 30;
  auto sid = client.OpenSession(request);
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  auto cid = client.OpenCursor(*sid, spec);
  ASSERT_TRUE(cid.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  Status terminal = Status::OK();
  RowBlock block;
  for (int i = 0; i < 10000 && terminal.ok(); ++i) {
    auto batch = client.NextBatch(*sid, *cid, std::move(block));
    if (!batch.ok()) {
      terminal = batch.status();
      break;
    }
    if (batch->done) break;
    block = std::move(batch->rows);
  }
  // The remote deadline error decodes through the stable mapping; the
  // connection itself stays healthy.
  EXPECT_EQ(terminal.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, SessionsAreConnectionScoped) {
  NetClient a;
  NetClient b;
  ASSERT_TRUE(a.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", port()).ok());
  auto sid = a.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  // Another connection can't address it — not closing, not streaming.
  EXPECT_EQ(b.CloseSession(*sid).code(), StatusCode::kNotFound);
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  EXPECT_EQ(b.OpenCursor(*sid, spec).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(a.CloseSession(*sid).ok());
}

TEST_F(NetTest, OverlongProjectionFailsTheOpenNotTheConnection) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  auto sid = client.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  const size_t width = env_.schema.relation(spec.relation).num_attributes();
  // One entry past the relation's width, and a 1 MiB frame of repeats of
  // an in-range column: both are refused before any batch is sized.
  for (const size_t entries : {width + 1, size_t{1} << 18}) {
    spec.projection.assign(entries, 0);
    EXPECT_EQ(client.OpenCursor(*sid, spec).status().code(),
              StatusCode::kInvalidArgument)
        << entries << " projection entries";
  }
  spec.projection.assign(width, 0);
  EXPECT_TRUE(client.OpenCursor(*sid, spec).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.CloseSession(*sid).ok());
}

TEST_F(NetTest, OverlongFilterFailsTheOpenNotTheConnection) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  auto sid = client.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  // n one-interval atoms over S_fk, one conjunct each.
  const auto filter_of = [](int64_t n) {
    DnfPredicate filter;
    for (int64_t i = 0; i < n; ++i) {
      filter.AddConjunct(Conjunct{{AtomEqual(1, i)}});
    }
    return filter;
  };
  // One interval past the limit, and a 2.8 MB frame of 100,000 conjuncts:
  // both are refused before any grant runs the filter.
  const int64_t too_long[] = {CursorSpec::kMaxFilterIntervals + 1, 100000};
  for (const int64_t n : too_long) {
    spec.filter = filter_of(n);
    EXPECT_EQ(client.OpenCursor(*sid, spec).status().code(),
              StatusCode::kInvalidArgument)
        << n << " intervals";
  }
  spec.filter = filter_of(CursorSpec::kMaxFilterIntervals);
  auto cursor = client.OpenCursor(*sid, spec);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_TRUE(client.NextBatch(*sid, *cursor).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.CloseSession(*sid).ok());
}

TEST_F(NetTest, DisconnectReapsTheConnectionsSessions) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  auto sid = client.OpenSession(SessionRequest("alpha"));
  ASSERT_TRUE(sid.ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  ASSERT_TRUE(client.OpenCursor(*sid, spec).ok());
  client.Disconnect();  // abrupt: no goodbye frames
  // The server notices the hangup and cancels + closes the orphaned
  // session.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net_->stats().sessions_reaped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(net_->stats().sessions_reaped, 1u);
}

TEST_F(NetTest, DisconnectCancelsARequestParkedInAdmission) {
  // A session limited to 1 row/s overdraws its bucket with its first
  // 1,024-row batch, so its second NextBatch parks behind the token bucket
  // for ~17 minutes. Dropping the connection must cancel that request at
  // once and reap the session; other connections are served meanwhile.
  auto conn = std::make_unique<RawConn>(port());
  ASSERT_TRUE(conn->connected());
  uint64_t request_id = 0;
  // One round trip: the response body after an OK status envelope, or
  // nullopt.
  const auto round_trip =
      [&](Opcode opcode,
          const std::string& body) -> std::optional<std::string> {
    FrameHeader header;
    std::string payload;
    if (!conn->Send(Frame(opcode, ++request_id, body)) ||
        !conn->ReadFrame(&header, &payload)) {
      return std::nullopt;
    }
    WireReader reader(payload);
    Status status;
    if (!ReadStatusEnvelope(&reader, &status).ok() || !status.ok()) {
      return std::nullopt;
    }
    return payload.substr(payload.size() - reader.remaining());
  };
  const auto read_id = [](const std::string& body) {
    uint64_t id = 0;
    WireReader reader(body);
    EXPECT_TRUE(reader.U64(&id).ok());
    return id;
  };

  OpenSessionRequest request = SessionRequest("alpha");
  request.rate_limit_rows_per_sec = 1;
  std::string body;
  AppendOpenSessionRequest(request, &body);
  const auto session = round_trip(Opcode::kOpenSession, body);
  ASSERT_TRUE(session.has_value());
  const uint64_t session_id = read_id(*session);
  body.clear();
  WireWriter(&body).U64(session_id);
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  AppendCursorSpec(spec, &body);
  const auto cursor = round_trip(Opcode::kOpenCursor, body);
  ASSERT_TRUE(cursor.has_value());
  std::string next_batch;
  WireWriter writer(&next_batch);
  writer.U64(session_id);
  writer.U64(read_id(*cursor));
  ASSERT_TRUE(round_trip(Opcode::kNextBatch, next_batch).has_value());

  const ServeStats before = server_->stats();
  ASSERT_TRUE(conn->Send(Frame(Opcode::kNextBatch, ++request_id, next_batch)));
  const auto parked_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().rate_deferrals == before.rate_deferrals &&
         std::chrono::steady_clock::now() < parked_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(server_->stats().rate_deferrals, before.rate_deferrals);
  NetClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", port()).ok());
  EXPECT_TRUE(other.Ping().ok());

  conn.reset();  // abrupt close with the request parked
  const auto reaped_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((net_->stats().sessions_reaped == 0 ||
          server_->stats().cancelled_requests == before.cancelled_requests) &&
         std::chrono::steady_clock::now() < reaped_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net_->stats().sessions_reaped, 1u);
  EXPECT_GT(server_->stats().cancelled_requests, before.cancelled_requests);
}

TEST_F(NetTest, WireStartsNoPoolTask) {
  // Each connection's thread executes its own frames, so a wire stream,
  // like an in-process request (ServeTest.ExecuteQueryStartsNoPoolTask),
  // starts no pool task.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  ASSERT_TRUE(Failpoint::ArmFromString("thread_pool/dispatch=delay(0)").ok());
  const Failpoint* point = Failpoint::Find("thread_pool/dispatch");
  const uint64_t before = point == nullptr ? 0 : point->hits();
  StreamHash(client, spec);
  const uint64_t after = point == nullptr ? 0 : point->hits();
  Failpoint::DisarmAll();
  ASSERT_NE(point, nullptr);
  EXPECT_EQ(after, before);
}

TEST_F(NetTest, NetStatsFieldsEqualTheirSnapshotEntries) {
  // Every NetStats field is a read of its "net/" registry entry. Stop()
  // quiesces the front end (and reaps the orphaned session); its metrics
  // stay registered until the NetServer is destroyed.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  spec.end_rank = 3000;
  StreamHash(client, spec);
  ASSERT_TRUE(client.OpenSession(SessionRequest("alpha")).ok());
  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send(Frame(static_cast<Opcode>(0x77), 1, "")));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.ReadFrame(&header, &payload));
  net_->Stop();

  const NetStats stats = net_->stats();
  const MetricsSnapshot snapshot = MetricRegistry::Snapshot();
  EXPECT_EQ(stats.connections_accepted,
            CounterValue(snapshot, "net/connections_accepted"));
  EXPECT_EQ(stats.connections_dropped,
            CounterValue(snapshot, "net/connections_dropped"));
  EXPECT_EQ(stats.frames_received,
            CounterValue(snapshot, "net/frames_received"));
  EXPECT_EQ(static_cast<int64_t>(stats.frames_sent),
            GaugeValue(snapshot, "net/frames_sent"));
  EXPECT_EQ(stats.protocol_errors,
            CounterValue(snapshot, "net/protocol_errors"));
  EXPECT_EQ(stats.sessions_reaped,
            CounterValue(snapshot, "net/sessions_reaped"));
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.connections_dropped, 2u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.sessions_reaped, 1u);
  EXPECT_EQ(stats.frames_sent, stats.frames_received);
}

// ---- protocol hardening ---------------------------------------------------

TEST_F(NetTest, BadMagicKillsTheConnection) {
  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  std::string junk = Frame(Opcode::kPing, 1, "");
  junk[0] = 'X';  // corrupt the magic
  ASSERT_TRUE(conn.Send(junk));
  EXPECT_TRUE(conn.ServerClosed());
  EXPECT_GE(net_->stats().protocol_errors, 1u);
}

TEST_F(NetTest, BadVersionKillsTheConnection) {
  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  std::string frame = Frame(Opcode::kPing, 1, "");
  frame[4] = 9;  // unknown protocol version
  ASSERT_TRUE(conn.Send(frame));
  EXPECT_TRUE(conn.ServerClosed());
}

TEST_F(NetTest, OversizedPayloadKillsTheConnection) {
  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  FrameHeader header;
  header.opcode = static_cast<uint8_t>(Opcode::kPing);
  header.request_id = 1;
  header.payload_len = kMaxPayloadBytes + 1;
  std::string frame(kFrameHeaderBytes, '\0');
  EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(&frame[0]));
  ASSERT_TRUE(conn.Send(frame));
  // The header alone is the protocol error: the server drops the
  // connection without waiting for (or buffering) the announced payload.
  EXPECT_TRUE(conn.ServerClosed());
}

TEST_F(NetTest, TornFramesReassembleAcrossArbitrarySplits) {
  // One frame dribbled in three writes with pauses, then two frames glued
  // into a single write: framing must be byte-oriented, not read-oriented.
  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  const std::string ping = Frame(Opcode::kPing, 7, "");
  ASSERT_TRUE(conn.Send(ping.substr(0, 5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(conn.Send(ping.substr(5, 11)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(conn.Send(ping.substr(16)));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.ReadFrame(&header, &payload));
  EXPECT_EQ(header.request_id, 7u);

  ASSERT_TRUE(conn.Send(Frame(Opcode::kPing, 8, "") +
                        Frame(Opcode::kPing, 9, "")));
  ASSERT_TRUE(conn.ReadFrame(&header, &payload));
  EXPECT_EQ(header.request_id, 8u);
  ASSERT_TRUE(conn.ReadFrame(&header, &payload));
  EXPECT_EQ(header.request_id, 9u);
}

TEST_F(NetTest, UnknownOpcodeFailsTheRequestNotTheConnection) {
  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  // 0x77 was never assigned; 8 is the retired Stats opcode.
  uint64_t request_id = 3;
  for (const uint8_t opcode : {uint8_t{0x77}, uint8_t{8}}) {
    ASSERT_TRUE(
        conn.Send(Frame(static_cast<Opcode>(opcode), request_id, "payload")));
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(conn.ReadFrame(&header, &payload));
    EXPECT_EQ(header.request_id, request_id);
    WireReader reader(payload);
    Status status;
    ASSERT_TRUE(ReadStatusEnvelope(&reader, &status).ok());
    EXPECT_EQ(status.code(), StatusCode::kUnimplemented) << int{opcode};
    // Framing stayed intact: the next request on the same connection works.
    ASSERT_TRUE(conn.Send(Frame(Opcode::kPing, request_id + 1, "")));
    ASSERT_TRUE(conn.ReadFrame(&header, &payload));
    EXPECT_EQ(header.request_id, request_id + 1);
    request_id += 2;
  }
}

TEST_F(NetTest, MalformedBodyFailsTheRequestNotTheConnection) {
  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  // OpenCursor with a truncated body: the frame is well-formed, the
  // payload is garbage — kInvalidArgument, connection survives.
  ASSERT_TRUE(conn.Send(Frame(Opcode::kOpenCursor, 5, "abc")));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.ReadFrame(&header, &payload));
  WireReader reader(payload);
  Status status;
  ASSERT_TRUE(ReadStatusEnvelope(&reader, &status).ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(conn.Send(Frame(Opcode::kPing, 6, "")));
  ASSERT_TRUE(conn.ReadFrame(&header, &payload));
  EXPECT_EQ(header.request_id, 6u);
}

TEST_F(NetTest, MalformedFrameFuzzSweepNeverWedgesTheServer) {
  // Seeded sweep of hostile inputs: random bytes, valid headers with
  // random opcodes and random bodies, truncated frames with early
  // disconnects. The server may kill any individual connection; it must
  // survive them all and keep serving clean clients byte-identically.
  std::mt19937_64 rng(20260807);
  const auto random_bytes = [&](size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(rng() & 0xff);
    return s;
  };
  for (int i = 0; i < 60; ++i) {
    RawConn conn(port());
    ASSERT_TRUE(conn.connected()) << "iteration " << i;
    std::string bytes;
    switch (i % 3) {
      case 0:  // pure noise
        bytes = random_bytes(1 + (rng() % 64));
        break;
      case 1:  // valid frame shape, random opcode + body
        bytes = Frame(static_cast<Opcode>(rng() & 0xff), rng(),
                      random_bytes(rng() % 48));
        break;
      default:  // truncated valid frame: disconnect mid-payload
        bytes = Frame(Opcode::kOpenCursor, rng(), random_bytes(32));
        bytes.resize(kFrameHeaderBytes + (rng() % 16));
        break;
    }
    conn.Send(bytes);
    // Destructor closes the socket — often mid-frame, which is the point.
  }
  CursorSpec spec;
  spec.relation = env_.schema.RelationIndex("R");
  spec.end_rank = 10000;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  EXPECT_EQ(StreamHash(client, spec), InProcessHash(spec));
}

}  // namespace
}  // namespace hydra
