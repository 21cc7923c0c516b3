// RegenServer — the dynamic-regeneration service (docs/serve.md).
//
// One process serves many concurrent clients against many virtual
// databases: a client opens a session on a registered summary id, then
// streams rows through cursors (bounded filtered/projected rank scans over
// the TupleGenerator), issues point lookups, or runs full engine pipelines
// (the morsel-driven executor). Nothing is materialized — every served row
// is generated on demand from the summary, the paper's Section 6 `datagen`
// path made multi-tenant.
//
// API contract (serve_api.h): this class and the TCP front end
// (src/net/) expose the same typed surface — SessionHandle/CursorHandle,
// OpenSessionRequest, BatchResult — so an in-process embedder and a wire
// client are interchangeable, and every error maps to a stable
// ServeErrorCode the wire transmits verbatim.
//
// Determinism contract: a cursor's concatenated row stream is a pure
// function of (summary file, CursorSpec) — identical across any
// {max_inflight, cache_bytes, batch_rows} configuration, any
// interleaving with other sessions, and across evictions: cursors address
// the rank space, so a cursor whose summary was evicted and reloaded (or a
// brand-new cursor opened at BatchResult::rank) continues byte-identically.
//
// Threading: the server is thread-safe and starts no thread of its own:
// every request runs on the thread that calls it, inside an admission
// grant. Each session is a single-client object (concurrent calls into one
// session serialize on its lock). All work is admission-controlled by the
// FairScheduler, so total concurrent work never exceeds
// ServeOptions::max_inflight. Per-session QoS
// (OpenSessionRequest::priority / rate_limit_rows_per_sec) weights and
// paces that admission; see scheduler.h.
//
// Failure domain (docs/robustness.md): every request observes the
// session's CancelScope — the client's own CancelToken, the per-session
// deadline, and the server's shutdown signal — and unwinds with
// kCancelled / kDeadlineExceeded within one admission grant of the signal.
// Overload sheds (kResourceExhausted) instead of queueing unboundedly, and
// cache overcommit degrades batch sizes before refusing anything.
// Shutdown() drains gracefully: new opens get kUnavailable, in-flight work
// finishes its bounded quantum, and the call returns once nothing runs.

#ifndef HYDRA_SERVE_SERVER_H_
#define HYDRA_SERVE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/metrics.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/operators.h"
#include "query/predicate.h"
#include "query/query.h"
#include "serve/scan_group.h"
#include "serve/scheduler.h"
#include "serve/serve_api.h"
#include "serve/serve_options.h"
#include "serve/summary_store.h"

namespace hydra {

class RegenServer {
 public:
  explicit RegenServer(ServeOptions options = {});
  ~RegenServer();

  RegenServer(const RegenServer&) = delete;
  RegenServer& operator=(const RegenServer&) = delete;

  // Registers the summary file at `path` under `id` (loaded lazily on
  // first use; see SummaryStore).
  Status RegisterSummary(const std::string& id, const std::string& path);

  // Opens a session against a registered summary and installs the
  // request's deadline and QoS. Validates that the summary loads (so a
  // corrupt file fails here, not mid-stream). Fails with kUnavailable
  // after Shutdown() and with kResourceExhausted when the server is
  // shedding (session cap reached or admission queue full).
  StatusOr<SessionHandle> OpenSession(const OpenSessionRequest& request);
  Status CloseSession(SessionHandle session);

  // Trips the session's server-side cancel flag: every queued and future
  // request of the session fails with kCancelled; in-flight work stops
  // within one admission grant. The session stays open (CloseSession still
  // applies) so the client can observe the terminal error.
  Status CancelSession(SessionHandle session);

  // Graceful drain: new opens fail with kUnavailable, every session is
  // cancelled, queued admissions are woken to leave, and the call blocks
  // until no work is admitted or queued. Idempotent; the destructor calls
  // it. Existing sessions stay readable for stats/errors until closed.
  Status Shutdown();
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  // Opens a cursor; the spec is validated against the summary's schema.
  StatusOr<CursorHandle> OpenCursor(SessionHandle session, CursorSpec spec);

  // Next batch of the cursor's stream: non-empty rows mid-stream, or
  // done=true (empty rows) at end of stream; rank is the resume token
  // after the batch. Pass the previous result's rows back as `reuse` to
  // recycle its buffers. Each admitted grant generates at most
  // ServeOptions::batch_rows source ranks, so selective filters cost
  // several grants — between which other sessions interleave — rather
  // than one unbounded one. Batch boundaries are an implementation
  // detail; only the concatenated stream is contractual.
  StatusOr<BatchResult> NextBatch(SessionHandle session, CursorHandle cursor,
                                  RowBlock&& reuse = RowBlock());

  // Rank of the next row the cursor would emit — the resume token: a new
  // cursor opened with begin_rank = CursorRank() continues the stream.
  StatusOr<int64_t> CursorRank(SessionHandle session, CursorHandle cursor);
  Status CloseCursor(SessionHandle session, CursorHandle cursor);

  // Point lookup: the tuple whose PK is `pk` (PK values are ranks).
  StatusOr<Row> Lookup(SessionHandle session, int relation, int64_t pk);

  // Full engine pipeline over the session's virtual database: executes
  // `query` with the morsel-driven executor on the calling thread, under
  // one admission grant, and returns the annotated plan. The query checks
  // the session's scope before every morsel. Results are identical at any
  // server configuration.
  StatusOr<AnnotatedQueryPlan> ExecuteQuery(SessionHandle session,
                                            const Query& query);

  // Reads of the server's metrics (docs/observability.md lists each name):
  // no lock is taken, and a quiesced server's fields equal its snapshot.
  ServeStats stats() const;
  // Per-scan-group introspection: one row per live group (identity,
  // fan-out, lifetime counters), read from the group's
  // "serve/group/<summary>/<relation>/..." metrics.
  std::vector<ScanGroupInfo> scan_group_infos() const;
  const ServeOptions& options() const { return options_; }

 private:
  struct Cursor {
    CursorSpec spec;
    int64_t next_rank = 0;
    int64_t end_rank = 0;
    // Row count of the relation, fixed by the summary at OpenCursor; lets
    // the shared fast path bound its chunk without acquiring a lease.
    int64_t relation_rows = 0;
    int source_width = 0;
    int out_width = 0;
    // The spec's filter compiled to column kernels once at OpenCursor; every
    // grant evaluates it over the generated columns via a selection vector.
    kernels::BlockPredicate filter;
    // Columns a private grant fills into `scratch`: the filter's columns
    // plus the projection. Empty = every column (no projection).
    std::vector<int> live_columns;
    SelVector sel;     // per-grant selection scratch, capacity reused
    RowBlock scratch;  // source-width generation buffer, reused per morsel
    // Shared-scan membership (docs/serve.md): non-null while this cursor is
    // a member of its (summary, relation) scan group. Grants fan out of the
    // group's shared chunks whenever the group has >= 2 members and the
    // grant is not degraded; otherwise the grant is private and fills its
    // own morsel. Membership ends at CloseCursor/CloseSession or on a
    // terminal cancel/deadline — a detached member never disturbs the
    // group.
    std::shared_ptr<ScanGroup> group;
    uint64_t member = 0;
  };
  struct Session {
    uint64_t id = 0;
    std::string summary_id;
    std::mutex mu;  // serializes calls into this session
    std::unordered_map<uint64_t, Cursor> cursors;
    uint64_t next_cursor_id = 1;
    // Failure domain: the client's token (may be null), the session
    // deadline, and the server-side flag Shutdown()/CancelSession() trip.
    std::shared_ptr<CancelToken> user_cancel;
    Deadline deadline;
    CancelToken server_cancel;
  };

  StatusOr<std::shared_ptr<Session>> FindSession(uint64_t session_id);
  // The scope every request of `session` polls: user token + deadline +
  // server-side cancel. Valid while the shared_ptr is held.
  static CancelScope SessionScope(const Session& session) {
    return CancelScope(session.user_cancel.get(), session.deadline,
                       &session.server_cancel);
  }
  // Rows one cursor grant may generate right now: batch_rows normally,
  // proportionally less (floored) while the summary cache is overcommitted.
  int64_t EffectiveBatchRows() const;
  // Counts a request that ended with kCancelled/kDeadlineExceeded.
  Status TallyTerminal(Status status);
  // One shared-scan grant: acquires (generating at most once across the
  // group) the chunk covering cursor.next_rank and fans this member's rows
  // out of it. Runs inside an admission grant; session.mu held.
  Status SharedGrant(Session& session, Cursor& cursor,
                     const TupleGenerator& generator, const CancelScope& scope,
                     RowBlock* out);
  // Admission-free multicast serve: when the chunk covering
  // cursor.next_rank is already resident in the group's ring, fans this
  // member's rows out of it and returns true — without a scheduler grant
  // or a summary lease. The generation work was the producer's admission
  // (and was charged to every peer), so a consumer replaying it from
  // memory must not also queue behind the producers: routing hits through
  // admission lets paced producers hold every inflight slot while the
  // member they are pacing on waits for one, convoying the whole group on
  // the eviction grace. Returns false on a miss (or an in-flight load):
  // the caller takes the admitted path. session.mu held.
  bool TrySharedFastPath(Cursor& cursor, RowBlock* out);
  // Fans cursor's rows in [next_rank, min(end_rank, chunk_end)) out of
  // `block` (covering ranks [base, chunk_end): a shared chunk or a private
  // grant's scratch) through the cursor's own filter and projection,
  // advancing next_rank. session.mu held.
  void FanOut(Cursor& cursor, const RowBlock& block, int64_t base,
              int64_t chunk_end, RowBlock* out);
  // Ends the cursor's group membership, if any. session.mu held.
  void DetachCursor(Session& session, Cursor& cursor);
  // Slow-op log (docs/observability.md): when the op's measured latency
  // reaches ServeOptions::slow_op_ms, emits one structured stderr line off
  // the histogram timer's own measurement. rank < 0 = not applicable.
  void MaybeLogSlowOp(const char* op, uint64_t session_id,
                      const std::string& summary_id, int64_t rank,
                      const ScopedLatencyTimer& timer);

  ServeOptions options_;
  // Reserves "serve" ("serve#2"... for further live servers). Every tally
  // of this server, its store, scheduler and scan groups is a metric under
  // it; declared before them all, so it is released after they unregister.
  MetricScope scope_;
  SummaryStore store_;
  FairScheduler scheduler_;
  ScanGroupRegistry scan_groups_;

  std::mutex mu_;  // guards sessions_ / next_session_id_
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  std::atomic<bool> shutting_down_{false};
  Counter batches_served_;
  Counter rows_served_;
  Counter lookups_served_;
  Counter queries_served_;
  Counter opens_shed_;
  Counter degraded_batches_;
  Counter cancelled_requests_;
};

}  // namespace hydra

#endif  // HYDRA_SERVE_SERVER_H_
