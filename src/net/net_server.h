// NetServer — the TCP front end of RegenServer (docs/net.md).
//
// One IO thread runs a poll() event loop over the listening socket and
// every connection; request execution runs on a thread-per-core worker
// pool (src/common/thread_pool.h), so a handler blocking in the fair
// scheduler's admission queue never stalls the loop. The protocol is
// strictly request/response per connection: one frame is in flight at a
// time, later frames buffer until the response is written (arrival-order
// execution, which is what makes a wire cursor stream deterministic).
//
// Sessions are connection-owned: a session opened on a connection is
// addressable only from it, and when the connection drops — client close,
// socket error, or an injected net/* failpoint — the server immediately
// CancelSession()s everything the connection owns (unblocking any
// in-flight request at its next cancellation poll) and CloseSession()s it
// once the in-flight handler unwinds. Resumption is the serve layer's
// rank-cursor contract: the client reconnects, reopens a session, and
// opens a cursor at its last BatchResult::rank — the stream continues
// byte-identically (tests/net_test.cc, tests/chaos_serve_test.cc).
//
// Failpoints: `net/accept` (drop an accepted connection), `net/read_frame`
// and `net/write_frame` (fail a frame read/write as if the socket died) —
// armed through the HYDRA_FAILPOINTS grammar for chaos schedules.

#ifndef HYDRA_NET_NET_SERVER_H_
#define HYDRA_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/wire.h"
#include "serve/server.h"

namespace hydra {

struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 = ephemeral; the bound port is readable via port() after Start().
  int port = 0;
  // Workers executing request handlers. 0 = one per hardware thread, with
  // a floor of 2: handlers block (admission, rate limits), and the pool
  // inlines work at width 1 — which would block the caller. The floor also
  // keeps one worker free to process a CancelSession that unblocks another
  // connection's stalled request.
  int worker_threads = 0;
  // Complete frames a connection may buffer behind its in-flight request
  // before the loop stops reading from it (backpressure on pipelining
  // clients).
  int max_buffered_frames = 16;
};

// NetServer::stats(): plain reads of the server's "net/<field>" metrics.
// frames_sent is a gauge (a GetMetrics response is pre-counted and undone
// if its write fails); the rest are monotonic counters.
struct NetStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_dropped = 0;  // disconnects + protocol errors + faults
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t protocol_errors = 0;  // bad magic/version/length, malformed bodies
  uint64_t sessions_reaped = 0;  // sessions cancelled+closed on disconnect
};

class NetServer {
 public:
  // `server` must outlive this object. Start()/Stop() bracket the listener.
  explicit NetServer(RegenServer* server, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, and launches the IO thread + worker pool. Fails with
  // kUnavailable when the address can't be bound.
  Status Start();

  // Drops every connection (reaping their sessions), joins the IO thread,
  // and drains the workers. Idempotent; the destructor calls it. The
  // underlying RegenServer is left running — it may be shared.
  void Stop();

  // The bound port (resolved from an ephemeral request); 0 before Start().
  int port() const { return port_; }

  NetStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::string read_buffer;  // raw bytes, frames parsed off the front
    // Complete frames (header + payload) waiting behind the in-flight
    // request. Bounded by max_buffered_frames.
    std::deque<std::pair<FrameHeader, std::string>> pending;
    bool busy = false;  // a worker is executing this connection's request
    bool dead = false;  // socket gone; close + reap once not busy
    // Sessions opened over this connection, reaped on disconnect.
    std::vector<SessionHandle> sessions;
  };

  void IoLoop();
  // Accepts as many pending connections as the listener holds.
  void AcceptReady();
  // Drains readable bytes, parses frames, dispatches if idle. Returns
  // false when the connection died (EOF, error, protocol error).
  bool ReadReady(const std::shared_ptr<Connection>& conn);
  // Hands the next pending frame to the worker pool. mu_ held.
  void DispatchLocked(const std::shared_ptr<Connection>& conn);
  // Worker entry: decode, execute against server_, write the response.
  // `enqueue_us` is the dispatch timestamp (0 when timing is disabled) —
  // the worker records its queue wait against it.
  void HandleFrame(std::shared_ptr<Connection> conn, FrameHeader header,
                   std::string payload, uint64_t enqueue_us);
  // Executes one request, appending the response payload (status envelope
  // + body) to `out`.
  void Execute(const std::shared_ptr<Connection>& conn, Opcode opcode,
               WireReader* reader, std::string* out);
  // Marks the connection dead, shuts the socket down, and cancels its
  // sessions (close + full reap happen once no worker holds it). mu_ held.
  void KillLocked(const std::shared_ptr<Connection>& conn);
  // Closes the fd and cancels+closes owned sessions; called when a dead
  // connection is no longer busy. mu_ held.
  void ReapLocked(const std::shared_ptr<Connection>& conn);
  // True when `session` was opened over `conn` (wire sessions are
  // connection-scoped).
  bool OwnsSession(const std::shared_ptr<Connection>& conn,
                   SessionHandle session);
  void WakeIoThread();

  RegenServer* const server_;
  NetServerOptions options_;
  // Reserves "net" ("net#2"... for further live front ends); declared
  // before the metrics named under it.
  MetricScope scope_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  int port_ = 0;
  std::thread io_thread_;
  std::unique_ptr<ThreadPool> workers_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex mu_;  // guards connections_ and Connection state
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  Counter connections_accepted_;
  Counter connections_dropped_;
  Counter frames_received_;
  Gauge frames_sent_;
  Counter protocol_errors_;
  Counter sessions_reaped_;
};

}  // namespace hydra

#endif  // HYDRA_NET_NET_SERVER_H_
