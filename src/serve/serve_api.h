// The serving contract — the one typed request/response surface shared by
// the in-process RegenServer API and the TCP wire protocol (docs/net.md).
//
// Everything a client names is a typed handle (SessionHandle, CursorHandle:
// distinct structs, so swapping the two is a compile error, not a silent
// NotFound at runtime), every open carries an explicit request struct with
// defaulted fields, NextBatch returns a BatchResult value instead of
// filling out-params, and every error crosses process boundaries as a
// ServeErrorCode — a stable numeric enum with a documented mapping from
// StatusCode that the wire protocol transmits verbatim.

#ifndef HYDRA_SERVE_SERVE_API_H_
#define HYDRA_SERVE_SERVE_API_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "engine/row_block.h"
#include "query/predicate.h"

namespace hydra {

// Opaque server-issued session identifier. Value 0 is never issued and
// means "no session".
struct SessionHandle {
  uint64_t id = 0;

  bool valid() const { return id != 0; }
  friend bool operator==(SessionHandle a, SessionHandle b) {
    return a.id == b.id;
  }
  friend bool operator!=(SessionHandle a, SessionHandle b) {
    return a.id != b.id;
  }
  friend bool operator<(SessionHandle a, SessionHandle b) {
    return a.id < b.id;
  }
};

// Opaque server-issued cursor identifier, scoped to its session. Value 0 is
// never issued.
struct CursorHandle {
  uint64_t id = 0;

  bool valid() const { return id != 0; }
  friend bool operator==(CursorHandle a, CursorHandle b) {
    return a.id == b.id;
  }
  friend bool operator!=(CursorHandle a, CursorHandle b) {
    return a.id != b.id;
  }
};

// Everything OpenSession needs, with defaults a plain `{"summary"}` keeps
// sane. The QoS fields feed the FairScheduler (docs/serve.md "QoS"):
// priority weights the round-robin grant rotation, rate_limit_rows_per_sec
// token-buckets the session's cursor streaming. The wire protocol marshals
// every field except `cancel` (a wire client cancels by CancelSession or by
// dropping the connection).
struct OpenSessionRequest {
  std::string summary_id;
  // Wall-clock budget for the whole session; 0 = none. Requests past the
  // deadline fail with kDeadlineExceeded.
  int64_t deadline_ms = 0;
  // Weighted round-robin: a session with priority p may take up to p
  // consecutive admission grants per rotation visit, so it drains p× the
  // work of a priority-1 peer under contention. Clamped to [1, 8].
  int priority = 1;
  // Token-bucket rate limit on served cursor rows, refilled continuously
  // with a one-second burst allowance. 0 = unlimited. Throttling defers the
  // session's grants (other sessions run instead); it never changes stream
  // content.
  int64_t rate_limit_rows_per_sec = 0;
  // Caller-owned cancellation handle: Cancel() makes every subsequent (and
  // every queued) request of this session fail with kCancelled. The server
  // shares ownership, so the caller may drop it any time. In-process only.
  std::shared_ptr<CancelToken> cancel;
};

// What a cursor streams: the rank range [begin_rank, end_rank) of one
// relation, filtered by a pushed-down predicate over the relation's
// attributes, projected to `projection` (empty = all attributes).
struct CursorSpec {
  // The most intervals `filter` may hold, summed over all its atoms.
  static constexpr int64_t kMaxFilterIntervals = 1024;

  int relation = -1;
  // Each interval costs one mask pass over a grant's rows, so OpenCursor
  // rejects a filter of more than kMaxFilterIntervals intervals with
  // kInvalidArgument. At batch_rows 4096 a grant over a filter at the limit
  // takes ~5 ms on a 4-vCPU Xeon.
  DnfPredicate filter = DnfPredicate::True();
  // Output columns, in order: attribute indices of the relation, repeats
  // allowed. At most as many entries as the relation has attributes;
  // OpenCursor rejects a longer list with kInvalidArgument.
  std::vector<int> projection;
  int64_t begin_rank = 0;
  int64_t end_rank = -1;  // -1 = the relation's row count
};

// One NextBatch result. Exactly one of {non-empty rows, done} holds: a
// non-empty batch with done=false mid-stream, empty rows with done=true at
// end of stream. `rank` is the resume token after this batch — a new cursor
// opened with begin_rank = rank continues the stream byte-identically, on
// this server or another one serving the same summary.
struct BatchResult {
  RowBlock rows;
  bool done = false;
  int64_t rank = 0;
};

// Stable numeric error codes — the wire representation of Status::code().
// The numbers are a frozen contract (docs/net.md): clients of any version
// decode them without sharing headers with the server, so entries are only
// ever appended, never renumbered or removed. StatusCode (an internal enum
// that may reorder freely) maps through ToServeErrorCode / ToStatusCode.
enum class ServeErrorCode : uint16_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kFailedPrecondition = 3,
  kOutOfRange = 4,
  kResourceExhausted = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kIoError = 8,
  kCancelled = 9,
  kDeadlineExceeded = 10,
  kUnavailable = 11,
};

// StatusCode -> wire code. Total: unknown/new internal codes degrade to
// kInternal rather than leaking unstable numbers onto the wire.
ServeErrorCode ToServeErrorCode(StatusCode code);
// Wire code -> StatusCode. Unknown wire values (a newer server) decode as
// kInternal so old clients still fail cleanly.
StatusCode ToStatusCode(uint16_t wire_code);
// Rebuilds a Status from its wire representation.
Status StatusFromWire(uint16_t wire_code, std::string message);

}  // namespace hydra

// Handles hash as their raw ids (for unordered_map keys in clients/tests).
template <>
struct std::hash<hydra::SessionHandle> {
  size_t operator()(hydra::SessionHandle h) const noexcept {
    return std::hash<uint64_t>{}(h.id);
  }
};
template <>
struct std::hash<hydra::CursorHandle> {
  size_t operator()(hydra::CursorHandle h) const noexcept {
    return std::hash<uint64_t>{}(h.id);
  }
};

#endif  // HYDRA_SERVE_SERVE_API_H_
