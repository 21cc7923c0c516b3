#include "net/client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace hydra {

Status NetClient::Connect(const std::string& host, int port) {
  if (connected()) return Status::FailedPrecondition("already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect failed: " + reason);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void NetClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status NetClient::Transact(Opcode opcode, const std::string& request_payload,
                           std::string* body) {
  if (!connected()) return Status::Unavailable("not connected");
  const uint64_t request_id = next_request_id_++;
  std::string frame(kFrameHeaderBytes, '\0');
  frame += request_payload;
  FrameHeader header;
  header.opcode = static_cast<uint8_t>(opcode);
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(request_payload.size());
  EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(&frame[0]));
  Status io = WriteAll(fd_, frame.data(), frame.size());
  uint8_t response_header_bytes[kFrameHeaderBytes];
  if (io.ok()) {
    io = ReadExact(fd_, response_header_bytes, sizeof(response_header_bytes));
  }
  FrameHeader response;
  if (io.ok()) {
    response = DecodeFrameHeader(response_header_bytes);
    io = ValidateFrameHeader(response);
    if (io.ok() && (response.request_id != request_id ||
                    response.opcode != header.opcode)) {
      io = Status::Unavailable("response does not match request");
    }
  }
  std::string payload;
  if (io.ok()) {
    payload.resize(response.payload_len);
    io = response.payload_len == 0
             ? Status::OK()
             : ReadExact(fd_, &payload[0], payload.size());
  }
  if (!io.ok()) {
    // The stream is out of sync (or gone); this connection is done.
    Disconnect();
    return Status::Unavailable(io.message());
  }
  WireReader reader(payload);
  Status remote;
  if (!ReadStatusEnvelope(&reader, &remote).ok()) {
    Disconnect();
    return Status::Unavailable("malformed response envelope");
  }
  if (!remote.ok()) return remote;
  body->assign(payload, payload.size() - reader.remaining(),
               reader.remaining());
  return Status::OK();
}

StatusOr<SessionHandle> NetClient::OpenSession(
    const OpenSessionRequest& request) {
  std::string payload;
  AppendOpenSessionRequest(request, &payload);
  std::string body;
  HYDRA_RETURN_IF_ERROR(Transact(Opcode::kOpenSession, payload, &body));
  WireReader reader(body);
  SessionHandle session;
  HYDRA_RETURN_IF_ERROR(reader.U64(&session.id));
  return session;
}

StatusOr<CursorHandle> NetClient::OpenCursor(SessionHandle session,
                                             const CursorSpec& spec) {
  std::string payload;
  WireWriter writer(&payload);
  writer.U64(session.id);
  AppendCursorSpec(spec, &payload);
  std::string body;
  HYDRA_RETURN_IF_ERROR(Transact(Opcode::kOpenCursor, payload, &body));
  WireReader reader(body);
  CursorHandle cursor;
  HYDRA_RETURN_IF_ERROR(reader.U64(&cursor.id));
  return cursor;
}

StatusOr<BatchResult> NetClient::NextBatch(SessionHandle session,
                                           CursorHandle cursor,
                                           RowBlock&& reuse) {
  std::string payload;
  WireWriter writer(&payload);
  writer.U64(session.id);
  writer.U64(cursor.id);
  std::string body;
  HYDRA_RETURN_IF_ERROR(Transact(Opcode::kNextBatch, payload, &body));
  WireReader reader(body);
  BatchResult result;
  result.rows = std::move(reuse);
  uint8_t done;
  HYDRA_RETURN_IF_ERROR(reader.U8(&done));
  HYDRA_RETURN_IF_ERROR(reader.I64(&result.rank));
  HYDRA_RETURN_IF_ERROR(ReadRowBlock(&reader, &result.rows));
  result.done = done != 0;
  return result;
}

StatusOr<int64_t> NetClient::CursorRank(SessionHandle session,
                                        CursorHandle cursor) {
  std::string payload;
  WireWriter writer(&payload);
  writer.U64(session.id);
  writer.U64(cursor.id);
  std::string body;
  HYDRA_RETURN_IF_ERROR(Transact(Opcode::kCursorRank, payload, &body));
  WireReader reader(body);
  int64_t rank;
  HYDRA_RETURN_IF_ERROR(reader.I64(&rank));
  return rank;
}

Status NetClient::CancelSession(SessionHandle session) {
  std::string payload;
  WireWriter writer(&payload);
  writer.U64(session.id);
  std::string body;
  return Transact(Opcode::kCancelSession, payload, &body);
}

Status NetClient::CloseCursor(SessionHandle session, CursorHandle cursor) {
  std::string payload;
  WireWriter writer(&payload);
  writer.U64(session.id);
  writer.U64(cursor.id);
  std::string body;
  return Transact(Opcode::kCloseCursor, payload, &body);
}

Status NetClient::CloseSession(SessionHandle session) {
  std::string payload;
  WireWriter writer(&payload);
  writer.U64(session.id);
  std::string body;
  return Transact(Opcode::kCloseSession, payload, &body);
}

StatusOr<std::string> NetClient::MetricsSerialized() {
  std::string body;
  HYDRA_RETURN_IF_ERROR(Transact(Opcode::kGetMetrics, std::string(), &body));
  WireReader reader(body);
  std::string snapshot;
  HYDRA_RETURN_IF_ERROR(reader.LengthPrefixed(&snapshot));
  return snapshot;
}

StatusOr<MetricsSnapshot> NetClient::Metrics() {
  HYDRA_ASSIGN_OR_RETURN(const std::string bytes, MetricsSerialized());
  MetricsSnapshot snapshot;
  HYDRA_RETURN_IF_ERROR(ParseMetricsSnapshot(bytes, &snapshot));
  return snapshot;
}

Status NetClient::Ping() {
  std::string body;
  return Transact(Opcode::kPing, std::string(), &body);
}

}  // namespace hydra
