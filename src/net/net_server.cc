#include "net/net_server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <system_error>
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
// executing and time writing the response. The kGetMetrics opcode skips
// both records — its response must be byte-identical to the snapshot it
// serialized, so it must not mutate the registry after serializing
// (tests/net_test.cc).
HYDRA_METRIC_HISTOGRAM(g_handle_us, "net/handle_us");
HYDRA_METRIC_HISTOGRAM(g_write_us, "net/write_us");

NetServer::NetServer(RegenServer* server, NetServerOptions options)
    : server_(server),
      options_(std::move(options)),
      scope_("net"),
      connections_accepted_(scope_.Name("connections_accepted")),
      connections_dropped_(scope_.Name("connections_dropped")),
      frames_received_(scope_.Name("frames_received")),
      frames_sent_(scope_.Name("frames_sent")),
      protocol_errors_(scope_.Name("protocol_errors")),
      sessions_reaped_(scope_.Name("sessions_reaped")) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  // Nonblocking, so AcceptReady stops at EAGAIN. Accepted sockets do not
  // inherit the flag: a connection's thread blocks on its own fd.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
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
  stopping_ = false;
  watcher_ = std::thread([this] { Watch(); });
  started_ = true;
  return Status::OK();
}

void NetServer::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  // A shut-down listener polls POLLHUP, which wakes the watcher.
  ::shutdown(listen_fd_, SHUT_RDWR);
  watcher_.join();
  // Kill every connection: cancelling its sessions unblocks a request stuck
  // in the admission queue, whose response write then fails on the
  // shut-down socket, so every thread exits.
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Connection& conn : connections_) KillLocked(&conn);
    connections.swap(connections_);
  }
  for (Connection& conn : connections) conn.thread.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_ = false;
}

void NetServer::Watch() {
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  for (;;) {
    fds.assign(1, pollfd{listen_fd_, POLLIN, 0});
    polled.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->fd < 0) {
          // Ended: its thread released mu_ for good when it closed the fd,
          // so joining it here cannot deadlock.
          it->thread.join();
          it = connections_.erase(it);
          continue;
        }
        if (!it->killed) {
          // POLLHUP and POLLERR report whatever the events ask for.
          fds.push_back(pollfd{it->fd, POLLRDHUP, 0});
          polled.push_back(&*it);
        }
        ++it;
      }
    }
    if (::poll(fds.data(), fds.size(), /*timeout=*/-1) < 0) {
      if (errno == EINTR) continue;
      return;  // poll itself failed; Stop() still kills and joins
    }
    if (fds[0].revents != 0) AcceptReady();
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 1; i < fds.size(); ++i) {
      // The peer hung up. A connection whose thread killed it since the
      // poll set was built is left alone (KillLocked is a no-op).
      if (fds[i].revents != 0) KillLocked(polled[i - 1]);
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
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.Inc();
    std::lock_guard<std::mutex> lock(mu_);
    Connection& conn = connections_.emplace_back();
    conn.fd = fd;
    try {
      conn.thread = std::thread([this, &conn] { Serve(&conn); });
    } catch (const std::system_error&) {
      // No thread to serve it: drop the connection.
      connections_.pop_back();
      ::close(fd);
      connections_dropped_.Inc();
    }
  }
}

void NetServer::Serve(Connection* conn) {
  // Only this thread closes the fd, so it stays valid until the end.
  const int fd = conn->fd;
  std::string payload;
  std::string frame;
  for (;;) {
    uint8_t raw[kFrameHeaderBytes];
    if (!ReadExact(fd, raw, sizeof(raw)).ok()) break;  // EOF, error or kill
    if (g_fp_read_frame.armed() && !g_fp_read_frame.Fire().ok()) {
      break;  // injected read failure == the socket died mid-frame
    }
    const FrameHeader header = DecodeFrameHeader(raw);
    if (!ValidateFrameHeader(header).ok()) {
      // The stream has no trustworthy frame boundary anymore; drop it.
      protocol_errors_.Inc();
      break;
    }
    payload.resize(header.payload_len);
    if (!ReadExact(fd, payload.data(), payload.size()).ok()) break;
    frames_received_.Inc();

    // Snapshot self-consistency: a GetMetrics response serializes the
    // registry inside Execute, so every effect of serving it must land
    // *before* that point (the pre-counted frames_sent below) or not at all
    // (handle/write records skipped).
    const auto opcode = static_cast<Opcode>(header.opcode);
    const bool is_metrics = opcode == Opcode::kGetMetrics;
    if (is_metrics) frames_sent_.Add(1);
    // Build the whole response frame in one buffer (header patched last),
    // so it goes out in one write.
    frame.assign(kFrameHeaderBytes, '\0');
    WireReader reader(payload);
    {
      ScopedLatencyTimer handle_timer(is_metrics ? nullptr : &g_handle_us);
      Execute(conn, opcode, &reader, &frame);
    }
    FrameHeader response;
    response.opcode = header.opcode;
    response.request_id = header.request_id;
    response.payload_len =
        static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
    EncodeFrameHeader(response, reinterpret_cast<uint8_t*>(frame.data()));
    Status write_status;
    if (g_fp_write_frame.armed()) write_status = g_fp_write_frame.Fire();
    if (write_status.ok()) {
      ScopedLatencyTimer write_timer(is_metrics ? nullptr : &g_write_us);
      write_status = WriteAll(fd, frame.data(), frame.size());
    }
    if (!write_status.ok()) {
      // The pre-count assumed the response would reach the wire.
      if (is_metrics) frames_sent_.Add(-1);
      break;
    }
    if (!is_metrics) frames_sent_.Add(1);
  }
  // No request of this connection is in flight any more: reap its sessions.
  std::lock_guard<std::mutex> lock(mu_);
  KillLocked(conn);
  for (const SessionHandle session : conn->sessions) {
    if (server_->CloseSession(session).ok()) sessions_reaped_.Inc();
  }
  conn->sessions.clear();
  ::close(fd);
  conn->fd = -1;
  connections_dropped_.Inc();
}

void NetServer::Execute(Connection* conn, Opcode opcode, WireReader* reader,
                        std::string* out) {
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
      // embedder reads, serialized with the same encoder. Serve already
      // pre-counted this frame and suppresses its own latency
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

bool NetServer::OwnsSession(Connection* conn, SessionHandle session) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::find(conn->sessions.begin(), conn->sessions.end(), session) !=
         conn->sessions.end();
}

void NetServer::KillLocked(Connection* conn) {
  if (conn->killed) return;
  conn->killed = true;
  // Shutdown, not close: the connection's thread may be blocked on the fd,
  // and the fd number must not be reused for a new accept until that
  // thread closes it.
  ::shutdown(conn->fd, SHUT_RDWR);
  // Disconnect triggers CancelSession (docs/net.md): any request of these
  // sessions — queued, admitted, or mid-stream — unwinds at its next
  // cancellation poll.
  for (const SessionHandle session : conn->sessions) {
    (void)server_->CancelSession(session);
  }
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
