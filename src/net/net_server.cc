#include "net/net_server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"

namespace hydra {

// Fault-injection sites of the wire layer (docs/net.md). An injected error
// behaves exactly like the corresponding socket failure: a failed accept
// drops the brand-new connection, a failed frame read/write kills the
// established one — and the dropped client exercises the reconnect+resume
// protocol.
HYDRA_FAILPOINT_DEFINE(g_fp_accept, "net/accept");
HYDRA_FAILPOINT_DEFINE(g_fp_read_frame, "net/read_frame");
HYDRA_FAILPOINT_DEFINE(g_fp_write_frame, "net/write_frame");

// Frame lifecycle latency, split at the seams a wire request crosses: time
// queued for a worker, time executing, time writing the response. The
// kGetMetrics opcode skips handle/write recording — its response must be
// byte-identical to the snapshot it serialized, so it must not mutate the
// registry after serializing (tests/net_test.cc).
HYDRA_METRIC_HISTOGRAM(g_dispatch_wait_us, "net/dispatch_wait_us");
HYDRA_METRIC_HISTOGRAM(g_handle_us, "net/handle_us");
HYDRA_METRIC_HISTOGRAM(g_write_us, "net/write_us");

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

int ResolveWorkers(const NetServerOptions& options) {
  const int requested = options.worker_threads == 0
                            ? ThreadPool::DefaultThreads()
                            : options.worker_threads;
  // Floor of 2: handlers block on admission, and a width-1 pool runs
  // inline — on the IO thread, which must never block.
  return std::max(2, requested);
}

}  // namespace

NetServer::NetServer(RegenServer* server, NetServerOptions options)
    : server_(server),
      options_(std::move(options)),
      scope_("net"),
      connections_accepted_(scope_.Name("connections_accepted")),
      connections_dropped_(scope_.Name("connections_dropped")),
      frames_received_(scope_.Name("frames_received")),
      frames_sent_(scope_.Name("frames_sent")),
      protocol_errors_(scope_.Name("protocol_errors")),
      sessions_reaped_(scope_.Name("sessions_reaped")) {
  if (options_.max_buffered_frames < 1) options_.max_buffered_frames = 1;
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("bind/listen failed: " +
                               std::string(std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::pipe(wake_fds_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe() failed");
  }
  HYDRA_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  HYDRA_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[0]));
  HYDRA_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[1]));
  workers_ = std::make_unique<ThreadPool>(ResolveWorkers(options_));
  stopping_.store(false, std::memory_order_relaxed);
  io_thread_ = std::thread([this] { IoLoop(); });
  started_ = true;
  return Status::OK();
}

void NetServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  WakeIoThread();
  io_thread_.join();
  // Kill every connection: cancels owned sessions, which unblocks any
  // handler stuck in the admission queue; its response write then fails on
  // the shut-down socket and the worker unwinds.
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<Connection>> conns;
    conns.reserve(connections_.size());
    for (const auto& [fd, conn] : connections_) conns.push_back(conn);
    for (const auto& conn : conns) KillLocked(conn);
  }
  workers_->Wait();
  // Workers are quiet now; reap anything a busy flag kept alive.
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!connections_.empty()) {
      ReapLocked(connections_.begin()->second);
    }
  }
  workers_.reset();
  ::close(listen_fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  listen_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
  started_ = false;
}

void NetServer::WakeIoThread() {
  const char byte = 0;
  // Nonblocking: a full pipe already guarantees a pending wake.
  (void)!::write(wake_fds_[1], &byte, 1);
}

void NetServer::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (!stopping_.load(std::memory_order_relaxed)) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [fd, conn] : connections_) {
        if (conn->dead) continue;
        // Backpressure: a connection that pipelined up to the buffer cap
        // is not read from until its queue drains (POLLERR/POLLHUP still
        // report, so a dropped client is noticed).
        const bool want_read =
            static_cast<int>(conn->pending.size()) <
            options_.max_buffered_frames;
        fds.push_back({fd, static_cast<short>(want_read ? POLLIN : 0), 0});
        polled.push_back(conn);
      }
    }
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/200) < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed; the server is wedged, bail out
    }
    if (fds[0].revents != 0) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[1].revents != 0) AcceptReady();
    for (size_t i = 2; i < fds.size(); ++i) {
      const std::shared_ptr<Connection>& conn = polled[i - 2];
      if (fds[i].revents == 0) continue;
      if (!ReadReady(conn)) {
        std::lock_guard<std::mutex> lock(mu_);
        KillLocked(conn);
      }
    }
  }
}

void NetServer::AcceptReady() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: nothing more to take now
    }
    if (g_fp_accept.armed() && !g_fp_accept.Fire().ok()) {
      // Injected accept failure: the client sees an immediate close —
      // exactly what an overloaded or dying listener produces.
      ::close(fd);
      connections_dropped_.Inc();
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.emplace(fd, conn);
    }
    connections_accepted_.Inc();
  }
}

bool NetServer::ReadReady(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn->dead || conn->fd < 0) return true;  // raced a reap; no-op
  }
  if (g_fp_read_frame.armed() && !g_fp_read_frame.Fire().ok()) {
    return false;  // injected read failure == the socket died mid-frame
  }
  // Drain everything readable (edge-agnostic: we re-poll level-triggered,
  // but draining now saves wakeups).
  char buf[1 << 16];
  while (true) {
    const ssize_t got = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (got > 0) {
      conn->read_buffer.append(buf, static_cast<size_t>(got));
      if (static_cast<size_t>(got) < sizeof(buf)) break;
      continue;
    }
    if (got == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  // Parse complete frames off the front.
  std::vector<std::pair<FrameHeader, std::string>> frames;
  size_t consumed = 0;
  while (conn->read_buffer.size() - consumed >= kFrameHeaderBytes) {
    const uint8_t* base =
        reinterpret_cast<const uint8_t*>(conn->read_buffer.data()) + consumed;
    const FrameHeader header = DecodeFrameHeader(base);
    if (!ValidateFrameHeader(header).ok()) {
      // The stream has no trustworthy frame boundary anymore; drop it.
      protocol_errors_.Inc();
      return false;
    }
    if (conn->read_buffer.size() - consumed <
        kFrameHeaderBytes + header.payload_len) {
      break;  // torn frame: wait for the rest
    }
    frames.emplace_back(
        header,
        conn->read_buffer.substr(consumed + kFrameHeaderBytes,
                                 header.payload_len));
    consumed += kFrameHeaderBytes + header.payload_len;
    frames_received_.Inc();
  }
  if (consumed > 0) conn->read_buffer.erase(0, consumed);
  if (!frames.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& frame : frames) conn->pending.push_back(std::move(frame));
    if (!conn->busy && !conn->dead) DispatchLocked(conn);
  }
  return true;
}

void NetServer::DispatchLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->pending.empty()) return;
  conn->busy = true;
  FrameHeader header = conn->pending.front().first;
  std::string payload = std::move(conn->pending.front().second);
  conn->pending.pop_front();
  std::shared_ptr<Connection> shared = conn;
  const uint64_t enqueue_us =
      metrics::TimingEnabled() ? metrics::MonotonicMicros() : 0;
  workers_->Submit([this, shared, header, payload, enqueue_us]() mutable {
    HandleFrame(std::move(shared), header, std::move(payload), enqueue_us);
  });
}

void NetServer::HandleFrame(std::shared_ptr<Connection> conn,
                            FrameHeader header, std::string payload,
                            uint64_t enqueue_us) {
  if (enqueue_us != 0 && metrics::TimingEnabled()) {
    g_dispatch_wait_us.Record(metrics::MonotonicMicros() - enqueue_us);
  }
  // Snapshot self-consistency: a GetMetrics response serializes the
  // registry inside Execute, so every effect of serving it must land
  // *before* that point (the dispatch wait above, the pre-counted
  // frames_sent below) or not at all (handle/write records skipped).
  const bool is_metrics =
      static_cast<Opcode>(header.opcode) == Opcode::kGetMetrics;
  if (is_metrics) frames_sent_.Add(1);
  // Build the whole response frame in one buffer (header patched last), so
  // it goes out in one write — no torn frame on a concurrent kill.
  std::string frame(kFrameHeaderBytes, '\0');
  WireReader reader(payload);
  {
    ScopedLatencyTimer handle_timer(is_metrics ? nullptr : &g_handle_us);
    Execute(conn, static_cast<Opcode>(header.opcode), &reader, &frame);
  }
  FrameHeader response;
  response.opcode = header.opcode;
  response.request_id = header.request_id;
  response.payload_len =
      static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
  EncodeFrameHeader(response, reinterpret_cast<uint8_t*>(&frame[0]));
  Status write_status;
  if (g_fp_write_frame.armed()) write_status = g_fp_write_frame.Fire();
  if (write_status.ok()) {
    ScopedLatencyTimer write_timer(is_metrics ? nullptr : &g_write_us);
    write_status = WriteAll(conn->fd, frame.data(), frame.size());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (write_status.ok()) {
      if (!is_metrics) frames_sent_.Add(1);
    } else {
      // The pre-count assumed the response would reach the wire.
      if (is_metrics) frames_sent_.Add(-1);
      KillLocked(conn);
    }
    conn->busy = false;
    if (conn->dead) {
      ReapLocked(conn);
    } else if (!conn->pending.empty()) {
      DispatchLocked(conn);
    }
  }
  // The poll set may need rebuilding (backpressure lifted, conn died).
  WakeIoThread();
}

void NetServer::Execute(const std::shared_ptr<Connection>& conn, Opcode opcode,
                        WireReader* reader, std::string* out) {
  WireWriter writer(out);
  switch (opcode) {
    case Opcode::kOpenSession: {
      OpenSessionRequest request;
      if (Status s = ReadOpenSessionRequest(reader, &request); !s.ok()) {
        protocol_errors_.Inc();
        AppendStatusEnvelope(s, out);
        return;
      }
      StatusOr<SessionHandle> session = server_->OpenSession(request);
      AppendStatusEnvelope(session.ok() ? Status::OK() : session.status(),
                           out);
      if (session.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          conn->sessions.push_back(*session);
        }
        writer.U64(session->id);
      }
      return;
    }
    case Opcode::kOpenCursor: {
      uint64_t session_id;
      CursorSpec spec;
      Status s = reader->U64(&session_id);
      if (s.ok()) s = ReadCursorSpec(reader, &spec);
      if (!s.ok()) {
        protocol_errors_.Inc();
        AppendStatusEnvelope(s, out);
        return;
      }
      const SessionHandle session{session_id};
      if (!OwnsSession(conn, session)) {
        AppendStatusEnvelope(Status::NotFound("no such session"), out);
        return;
      }
      StatusOr<CursorHandle> cursor =
          server_->OpenCursor(session, std::move(spec));
      AppendStatusEnvelope(cursor.ok() ? Status::OK() : cursor.status(), out);
      if (cursor.ok()) writer.U64(cursor->id);
      return;
    }
    case Opcode::kNextBatch: {
      uint64_t session_id, cursor_id;
      Status s = reader->U64(&session_id);
      if (s.ok()) s = reader->U64(&cursor_id);
      if (!s.ok()) {
        protocol_errors_.Inc();
        AppendStatusEnvelope(s, out);
        return;
      }
      const SessionHandle session{session_id};
      if (!OwnsSession(conn, session)) {
        AppendStatusEnvelope(Status::NotFound("no such session"), out);
        return;
      }
      StatusOr<BatchResult> batch =
          server_->NextBatch(session, CursorHandle{cursor_id});
      AppendStatusEnvelope(batch.ok() ? Status::OK() : batch.status(), out);
      if (batch.ok()) {
        writer.U8(batch->done ? 1 : 0);
        writer.I64(batch->rank);
        AppendRowBlock(batch->rows, out);
      }
      return;
    }
    case Opcode::kCursorRank: {
      uint64_t session_id, cursor_id;
      Status s = reader->U64(&session_id);
      if (s.ok()) s = reader->U64(&cursor_id);
      if (!s.ok()) {
        protocol_errors_.Inc();
        AppendStatusEnvelope(s, out);
        return;
      }
      const SessionHandle session{session_id};
      if (!OwnsSession(conn, session)) {
        AppendStatusEnvelope(Status::NotFound("no such session"), out);
        return;
      }
      StatusOr<int64_t> rank =
          server_->CursorRank(session, CursorHandle{cursor_id});
      AppendStatusEnvelope(rank.ok() ? Status::OK() : rank.status(), out);
      if (rank.ok()) writer.I64(*rank);
      return;
    }
    case Opcode::kCancelSession:
    case Opcode::kCloseSession: {
      uint64_t session_id;
      if (Status s = reader->U64(&session_id); !s.ok()) {
        protocol_errors_.Inc();
        AppendStatusEnvelope(s, out);
        return;
      }
      const SessionHandle session{session_id};
      if (!OwnsSession(conn, session)) {
        AppendStatusEnvelope(Status::NotFound("no such session"), out);
        return;
      }
      Status result;
      if (opcode == Opcode::kCancelSession) {
        result = server_->CancelSession(session);
      } else {
        result = server_->CloseSession(session);
        std::lock_guard<std::mutex> lock(mu_);
        auto& owned = conn->sessions;
        owned.erase(std::remove(owned.begin(), owned.end(), session),
                    owned.end());
      }
      AppendStatusEnvelope(result, out);
      return;
    }
    case Opcode::kCloseCursor: {
      uint64_t session_id, cursor_id;
      Status s = reader->U64(&session_id);
      if (s.ok()) s = reader->U64(&cursor_id);
      if (!s.ok()) {
        protocol_errors_.Inc();
        AppendStatusEnvelope(s, out);
        return;
      }
      const SessionHandle session{session_id};
      if (!OwnsSession(conn, session)) {
        AppendStatusEnvelope(Status::NotFound("no such session"), out);
        return;
      }
      AppendStatusEnvelope(
          server_->CloseCursor(session, CursorHandle{cursor_id}), out);
      return;
    }
    case Opcode::kPing: {
      AppendStatusEnvelope(Status::OK(), out);
      return;
    }
    case Opcode::kGetMetrics: {
      // The one source of truth: the same registry snapshot an in-process
      // embedder reads, serialized with the same encoder. HandleFrame
      // already pre-counted this frame and suppresses its own latency
      // records, so these bytes equal a quiesced in-process snapshot.
      AppendStatusEnvelope(Status::OK(), out);
      writer.LengthPrefixed(
          SerializeMetricsSnapshot(MetricRegistry::Snapshot()));
      return;
    }
  }
  // Unknown opcode: the frame itself was well-formed, so the connection
  // survives; the client gets a stable "not supported" answer.
  protocol_errors_.Inc();
  AppendStatusEnvelope(Status::Unimplemented("unknown opcode"), out);
}

bool NetServer::OwnsSession(const std::shared_ptr<Connection>& conn,
                            SessionHandle session) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::find(conn->sessions.begin(), conn->sessions.end(), session) !=
         conn->sessions.end();
}

void NetServer::KillLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  // Shutdown (not close) while a worker may still hold the fd: the write
  // fails cleanly, and the fd number cannot be reused for a new accept
  // until ReapLocked actually closes it.
  if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  // Disconnect triggers CancelSession (docs/net.md): any request of these
  // sessions — queued, admitted, or mid-stream — unwinds at its next
  // cancellation poll.
  for (const SessionHandle session : conn->sessions) {
    (void)server_->CancelSession(session);
  }
  if (!conn->busy) ReapLocked(conn);
}

void NetServer::ReapLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->fd >= 0) {
    connections_.erase(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
    connections_dropped_.Inc();
  }
  conn->dead = true;
  for (const SessionHandle session : conn->sessions) {
    (void)server_->CancelSession(session);
    if (server_->CloseSession(session).ok()) {
      sessions_reaped_.Inc();
    }
  }
  conn->sessions.clear();
}

NetStats NetServer::stats() const {
  NetStats s;
  s.connections_accepted = connections_accepted_.value();
  s.connections_dropped = connections_dropped_.value();
  s.frames_received = frames_received_.value();
  s.frames_sent = static_cast<uint64_t>(frames_sent_.value());
  s.protocol_errors = protocol_errors_.value();
  s.sessions_reaped = sessions_reaped_.value();
  return s;
}

}  // namespace hydra
