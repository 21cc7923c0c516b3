// Wire protocol of the serve front end (docs/net.md).
//
// Framing: every message is one frame — a fixed 20-byte header followed by
// `payload_len` bytes of payload. All integers are little-endian.
//
//   offset  size  field
//   0       4     magic       0x41525948 — ASCII "HYRA" on the wire
//   4       1     version     kWireVersion (1)
//   5       1     opcode      Opcode
//   6       2     reserved    0
//   8       8     request_id  echoed verbatim in the response frame
//   16      4     payload_len bytes following the header (<= kMaxPayload)
//
// Requests and responses share the frame shape; a response echoes the
// request's opcode and request_id. Every response payload begins with a
// status envelope — u16 ServeErrorCode + u32 message length + message
// bytes — followed by the opcode-specific body only when the code is kOk.
//
// The payload codecs below are the single marshalling implementation: the
// server encodes with the same functions the client decodes with, so the
// in-process typed API (serve_api.h) and the wire cannot drift apart.
//
// Trust model: WireReader bounds-checks every read and caps every count
// against the bytes actually present, so a malformed or adversarial frame
// yields kInvalidArgument, never a crash or an unbounded allocation.

#ifndef HYDRA_NET_WIRE_H_
#define HYDRA_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "serve/serve_api.h"

namespace hydra {

inline constexpr uint32_t kWireMagic = 0x41525948u;  // "HYRA"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;
// Upper bound on one frame's payload; a header announcing more is a
// protocol error that kills the connection.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

enum class Opcode : uint8_t {
  kOpenSession = 1,
  kOpenCursor = 2,
  kNextBatch = 3,
  kCursorRank = 4,
  kCancelSession = 5,
  kCloseCursor = 6,
  kCloseSession = 7,
  // 8 was Stats, a ServeStats dump; retired, since GetMetrics carries every
  // counter. Never reuse it: a server answers it kUnimplemented.
  kPing = 9,
  // Body: the serialized MetricRegistry snapshot (SerializeMetricsSnapshot
  // in common/metrics.h) — byte-identical to an in-process snapshot of the
  // same registry state.
  kGetMetrics = 10,
};

struct FrameHeader {
  uint32_t magic = kWireMagic;
  uint8_t version = kWireVersion;
  uint8_t opcode = 0;
  uint16_t reserved = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

// Serializes `header` into exactly kFrameHeaderBytes at `out`.
void EncodeFrameHeader(const FrameHeader& header, uint8_t* out);
// Parses kFrameHeaderBytes at `in`. Purely structural — see Validate.
FrameHeader DecodeFrameHeader(const uint8_t* in);
// Checks magic, version and payload bound. A failure here means the byte
// stream itself can't be trusted (no frame boundary to resynchronize on),
// so the connection must be dropped.
Status ValidateFrameHeader(const FrameHeader& header);

// Appends little-endian scalars to a byte string (std::string doubles as
// the byte buffer everywhere in this layer).
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bytes(const void* data, size_t n);
  // u32 length prefix + bytes.
  void LengthPrefixed(const std::string& s);

 private:
  std::string* out_;
};

// Bounds-checked little-endian reads over a borrowed byte range. Every
// getter fails with kInvalidArgument on underrun; decoding never reads
// past `size`.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& buf)
      : WireReader(reinterpret_cast<const uint8_t*>(buf.data()), buf.size()) {}

  Status U8(uint8_t* v);
  Status U16(uint16_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I32(int32_t* v);
  Status I64(int64_t* v);
  // u32 length prefix + bytes; the length is capped by remaining().
  Status LengthPrefixed(std::string* s);
  // Borrows `n` raw bytes (bulk column copies); fails on underrun.
  Status Raw(size_t n, const uint8_t** p) { return Take(n, p); }

  size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  Status Take(size_t n, const uint8_t** p);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- payload codecs -----------------------------------------------------
// Append* writes the opcode-specific body; Read* parses it back. Each
// Read* fails with kInvalidArgument on malformed input.

// Response status envelope: u16 ServeErrorCode, length-prefixed message.
void AppendStatusEnvelope(const Status& status, std::string* out);
// Parses the envelope into `status` (reconstructed through the stable
// code mapping). Returns non-OK only when the envelope itself is
// malformed.
Status ReadStatusEnvelope(WireReader* reader, Status* status);

// OpenSession body: summary id, deadline, priority, rate limit. The
// in-process-only `cancel` field does not cross the wire.
void AppendOpenSessionRequest(const OpenSessionRequest& request,
                              std::string* out);
Status ReadOpenSessionRequest(WireReader* reader, OpenSessionRequest* request);

// DNF predicate: u32 conjuncts { u32 atoms { i32 column, u32 intervals
// { i64 lo, i64 hi } } }. True() is one empty conjunct, False() is zero.
void AppendPredicate(const DnfPredicate& predicate, std::string* out);
Status ReadPredicate(WireReader* reader, DnfPredicate* predicate);

// CursorSpec: i32 relation, i64 begin_rank, i64 end_rank, u32 projection
// count + i32 columns, predicate.
void AppendCursorSpec(const CursorSpec& spec, std::string* out);
Status ReadCursorSpec(WireReader* reader, CursorSpec* spec);

// RowBlock: u32 columns, u64 rows, then each column's values contiguously
// (column-major — the server's native layout, so encoding is a straight
// copy per column).
void AppendRowBlock(const RowBlock& block, std::string* out);
Status ReadRowBlock(WireReader* reader, RowBlock* block);

// --- blocking socket helpers -------------------------------------------
// Every frame either end reads or writes goes through these, on a blocking
// fd: the client's requests and responses, and each server connection
// thread's frames. Both retry EINTR and treat any other failure (including
// EOF mid-buffer) as kUnavailable — the caller's signal to drop the
// connection.
Status ReadExact(int fd, void* buf, size_t n);
Status WriteAll(int fd, const void* buf, size_t n);

}  // namespace hydra

#endif  // HYDRA_NET_WIRE_H_
