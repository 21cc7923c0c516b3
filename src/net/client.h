// NetClient — small blocking TCP client of the serve front end.
//
// Mirrors the RegenServer typed API (serve_api.h) method for method: the
// same request structs in, the same handles and BatchResult out, with the
// wire's ServeErrorCode mapped back onto Status so a caller can't tell an
// in-process server from a remote one — except for transport failures,
// which surface as kUnavailable and leave the client disconnected.
//
// One request is in flight at a time (the class is not thread-safe; give
// each client thread its own NetClient — connections are cheap). Resume
// protocol after a drop: reconnect, OpenSession on the same summary, and
// OpenCursor with begin_rank = the last BatchResult::rank you consumed;
// the stream continues byte-identically (docs/net.md).

#ifndef HYDRA_NET_CLIENT_H_
#define HYDRA_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "net/wire.h"
#include "serve/serve_api.h"

namespace hydra {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { Disconnect(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // Connects to a numeric IPv4 address ("127.0.0.1").
  Status Connect(const std::string& host, int port);
  // Abrupt close — no goodbye frames. The server notices the drop and
  // reaps this connection's sessions (tests use this to exercise the
  // resume protocol).
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  // --- the typed serve API over the wire --------------------------------
  // `request.cancel` does not cross the wire; cancel remotely via
  // CancelSession or by dropping the connection.
  StatusOr<SessionHandle> OpenSession(const OpenSessionRequest& request);
  StatusOr<CursorHandle> OpenCursor(SessionHandle session,
                                    const CursorSpec& spec);
  // Pass the previous result's rows back as `reuse` to recycle buffers,
  // exactly like the in-process call.
  StatusOr<BatchResult> NextBatch(SessionHandle session, CursorHandle cursor,
                                  RowBlock&& reuse = RowBlock());
  StatusOr<int64_t> CursorRank(SessionHandle session, CursorHandle cursor);
  Status CancelSession(SessionHandle session);
  Status CloseCursor(SessionHandle session, CursorHandle cursor);
  Status CloseSession(SessionHandle session);
  // The server process's full metrics snapshot. MetricsSerialized() hands
  // back the wire bytes verbatim (byte-identical to the server's own
  // SerializeMetricsSnapshot — tests/net_test.cc holds it to that);
  // Metrics() parses them into a MetricsSnapshot.
  StatusOr<std::string> MetricsSerialized();
  StatusOr<MetricsSnapshot> Metrics();
  Status Ping();

 private:
  // One round trip: frames `request_payload` under `opcode`, reads the
  // response frame, verifies the echoed request id, and parses the status
  // envelope. On OK, `body` holds the bytes after the envelope. Any
  // transport or framing failure disconnects and returns kUnavailable.
  Status Transact(Opcode opcode, const std::string& request_payload,
                  std::string* body);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
};

}  // namespace hydra

#endif  // HYDRA_NET_CLIENT_H_
