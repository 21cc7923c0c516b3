// NetServer — the TCP front end of RegenServer (docs/net.md).
//
// Each connection has a thread of its own: it reads a frame, executes it,
// writes the response, and only then reads the next frame. The protocol is
// strictly request/response per connection, so frames execute in arrival
// order with no queue (which is what makes a wire cursor stream
// deterministic), and the socket buffer holds back a pipelining client. A
// watcher thread accepts connections and polls the live ones for hangups;
// it never reads. Only a connection's own thread closes its fd; the watcher
// and Stop() only shut it down, which fails the thread's read or write.
//
// Sessions are connection-owned: a session opened on a connection is
// addressable only from it, and when the connection drops — client close,
// socket error, or an injected net/* failpoint — the server immediately
// CancelSession()s everything the connection owns (unblocking any
// in-flight request at its next cancellation poll), and the connection's
// thread CloseSession()s it as it exits. Resumption is the serve layer's
// rank-cursor contract: the client reconnects, reopens a session, and
// opens a cursor at its last BatchResult::rank — the stream continues
// byte-identically (tests/net_test.cc, tests/chaos_serve_test.cc).
//
// Failpoints: `net/accept` (drop an accepted connection), `net/read_frame`
// and `net/write_frame` (fail a frame read/write as if the socket died) —
// armed through the HYDRA_FAILPOINTS grammar for chaos schedules.

#ifndef HYDRA_NET_NET_SERVER_H_
#define HYDRA_NET_NET_SERVER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/wire.h"
#include "serve/server.h"

namespace hydra {

struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 = ephemeral; the bound port is readable via port() after Start().
  int port = 0;
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

  // Binds, listens, and launches the watcher thread. Fails with
  // kUnavailable when the address can't be bound.
  Status Start();

  // Drops every connection, joins the watcher and every connection thread
  // (each reaps its sessions as it exits). Idempotent; the destructor calls
  // it. The underlying RegenServer is left running — it may be shared.
  void Stop();

  // The bound port (resolved from an ephemeral request); 0 before Start().
  int port() const { return port_; }

  NetStats stats() const;

 private:
  struct Connection {
    // Open until the connection's own thread closes it (under mu_), -1
    // after: the watcher then joins the thread.
    int fd = -1;
    // Shut down and its sessions cancelled, by the watcher on a hangup, by
    // Stop(), or by the connection's own thread as it exits.
    bool killed = false;
    // Sessions opened over this connection, reaped on disconnect.
    std::vector<SessionHandle> sessions;
    std::thread thread;
  };

  // The watcher thread: accepts connections, kills those whose peer hung
  // up, and joins the threads of ended ones.
  void Watch();
  // Accepts as many pending connections as the listener holds, starting a
  // thread for each.
  void AcceptReady();
  // A connection's thread: reads a frame, executes it against server_,
  // writes the response, until the connection dies; then reaps its
  // sessions and closes its fd.
  void Serve(Connection* conn);
  // Executes one request, appending the response payload (status envelope
  // + body) to `out`.
  void Execute(Connection* conn, Opcode opcode, WireReader* reader,
               std::string* out);
  // Shuts the socket down and cancels the connection's sessions; its
  // thread then fails its read or write, and exits. mu_ held.
  void KillLocked(Connection* conn);
  // True when `session` was opened over `conn` (wire sessions are
  // connection-scoped).
  bool OwnsSession(Connection* conn, SessionHandle session);

  RegenServer* const server_;
  NetServerOptions options_;
  // Reserves "net" ("net#2"... for further live front ends); declared
  // before the metrics named under it.
  MetricScope scope_;
  int listen_fd_ = -1;
  int port_ = 0;
  bool started_ = false;

  mutable std::mutex mu_;  // guards stopping_, connections_ and their state
  bool stopping_ = false;
  // A list: each connection's thread holds its element's address.
  std::list<Connection> connections_;

  Counter connections_accepted_;
  Counter connections_dropped_;
  Counter frames_received_;
  Gauge frames_sent_;
  Counter protocol_errors_;
  Counter sessions_reaped_;

  std::thread watcher_;
};

}  // namespace hydra

#endif  // HYDRA_NET_NET_SERVER_H_
