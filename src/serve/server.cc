#include "serve/server.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "hydra/tuple_generator.h"

namespace hydra {

// End-to-end request latency as the client experiences it: admission wait,
// summary lease, generation, and fan-out included.
HYDRA_METRIC_HISTOGRAM(g_next_batch_us, "serve/next_batch_us");
HYDRA_METRIC_HISTOGRAM(g_open_session_us, "serve/open_session_us");
// Requests the slow-op log reported (ServeOptions::slow_op_ms reached).
HYDRA_METRIC_COUNTER(g_slow_ops, "serve/slow_ops");

namespace {

int ResolveInflight(const ServeOptions& options) {
  return options.max_inflight == 0 ? ThreadPool::DefaultThreads()
                                   : std::max(1, options.max_inflight);
}

LoadRetryPolicy ResolveRetryPolicy(const ServeOptions& options) {
  LoadRetryPolicy policy;
  policy.retries = std::max(0, options.load_retries);
  policy.base_ms = std::max<int64_t>(0, options.load_retry_base_ms);
  policy.max_ms = std::max<int64_t>(policy.base_ms, options.load_retry_max_ms);
  return policy;
}

bool IsTerminalSignal(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

RegenServer::RegenServer(ServeOptions options)
    : options_(options),
      scope_("serve"),
      store_(scope_, options.cache_bytes, ResolveRetryPolicy(options)),
      scheduler_(scope_, ResolveInflight(options), options.max_queued),
      scan_groups_(scope_, std::max<int64_t>(1, options.batch_rows),
                   options.shared_scan_chunks),
      batches_served_(scope_.Name("batches_served")),
      rows_served_(scope_.Name("rows_served")),
      lookups_served_(scope_.Name("lookups_served")),
      queries_served_(scope_.Name("queries_served")),
      opens_shed_(scope_.Name("opens_shed")),
      degraded_batches_(scope_.Name("degraded_batches")),
      cancelled_requests_(scope_.Name("cancelled_requests")) {
  if (options_.batch_rows < 1) options_.batch_rows = 1;
}

RegenServer::~RegenServer() {
  // Belt and braces: a well-behaved embedder already Shutdown() and joined
  // its clients; draining again is a no-op then, and otherwise it keeps a
  // racing in-flight request from outliving the scheduler.
  (void)Shutdown();
}

Status RegenServer::RegisterSummary(const std::string& id,
                                    const std::string& path) {
  return store_.Register(id, path);
}

StatusOr<SessionHandle> RegenServer::OpenSession(
    const OpenSessionRequest& request) {
  trace::TraceScope span("serve/open_session");
  ScopedLatencyTimer timer(&g_open_session_us);
  if (shutting_down()) {
    return Status::Unavailable("server is shutting down");
  }
  // Load shedding at the front door: refuse new tenants while the session
  // cap is reached or the admission queue is already at its bound —
  // existing sessions' requests shed individually in Admit.
  if (options_.max_sessions > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
      opens_shed_.Inc();
      return Status::ResourceExhausted("session limit reached");
    }
  }
  if (options_.max_queued > 0 && scheduler_.queued() >= options_.max_queued) {
    opens_shed_.Inc();
    return Status::ResourceExhausted("admission queue full");
  }
  // Load (or touch) the summary now so registration errors and corrupt
  // files fail the open, not the first batch.
  HYDRA_ASSIGN_OR_RETURN(const SummaryLease lease,
                         store_.Acquire(request.summary_id));
  (void)lease;
  auto session = std::make_shared<Session>();
  session->summary_id = request.summary_id;
  session->user_cancel = request.cancel;
  session->deadline = request.deadline_ms > 0
                          ? Deadline::After(request.deadline_ms)
                          : Deadline::Infinite();
  SessionHandle handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down()) {
      // Shutdown raced the open: refuse rather than admit a session the
      // drain pass will never see.
      return Status::Unavailable("server is shutting down");
    }
    session->id = next_session_id_++;
    handle.id = session->id;
    sessions_.emplace(session->id, session);
  }
  // QoS rides on the open frame: install before the first request can
  // queue. Defaults (priority 1, no rate) are a no-op in the scheduler.
  scheduler_.SetSessionQos(
      handle.id, SessionQos{request.priority, request.rate_limit_rows_per_sec});
  MaybeLogSlowOp("open_session", handle.id, request.summary_id, -1, timer);
  return handle;
}

Status RegenServer::CloseSession(SessionHandle session_handle) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(session_handle.id);
    if (it == sessions_.end()) return Status::NotFound("no such session");
    session = it->second;
    sessions_.erase(it);
  }
  // A request of this session may still be queued (the map only stops new
  // FindSession calls); cancel + kick so it leaves promptly, and the held
  // shared_ptr keeps the Session alive until that waiter unwinds.
  session->server_cancel.Cancel();
  scheduler_.Kick();
  scheduler_.ForgetSession(session_handle.id);
  // Detach every cursor from its scan group so groups never count a closed
  // session among their members (taking session->mu may briefly wait out an
  // in-flight grant — bounded work, and the cancel above already tripped).
  {
    std::lock_guard<std::mutex> session_lock(session->mu);
    for (auto& [cursor_id, cursor] : session->cursors) {
      DetachCursor(*session, cursor);
    }
  }
  return Status::OK();
}

Status RegenServer::CancelSession(SessionHandle session_handle) {
  HYDRA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         FindSession(session_handle.id));
  session->server_cancel.Cancel();
  scheduler_.Kick();
  return Status::OK();
}

Status RegenServer::Shutdown() {
  if (shutting_down_.exchange(true)) {
    // Second caller (or the destructor after an explicit Shutdown): still
    // wait for the drain so every caller returns to a quiet server.
    scheduler_.Drain();
    return Status::OK();
  }
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (const auto& session : sessions) session->server_cancel.Cancel();
  scheduler_.Kick();
  scheduler_.Drain();
  return Status::OK();
}

StatusOr<std::shared_ptr<RegenServer::Session>> RegenServer::FindSession(
    uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  return it->second;
}

StatusOr<CursorHandle> RegenServer::OpenCursor(SessionHandle session_handle,
                                               CursorSpec spec) {
  HYDRA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         FindSession(session_handle.id));
  HYDRA_ASSIGN_OR_RETURN(const SummaryLease lease,
                         store_.Acquire(session->summary_id));
  const Schema& schema = lease.summary().schema;
  if (spec.relation < 0 || spec.relation >= schema.num_relations()) {
    return Status::InvalidArgument("cursor relation out of range");
  }
  const int width = schema.relation(spec.relation).num_attributes();
  for (const int col : spec.filter.Columns()) {
    if (col < 0 || col >= width) {
      return Status::InvalidArgument("cursor filter column out of range");
    }
  }
  // Bounds one grant's filter work.
  int64_t intervals = 0;
  for (const Conjunct& conjunct : spec.filter.conjuncts()) {
    for (const Atom& atom : conjunct.atoms) {
      intervals += static_cast<int64_t>(atom.values.intervals().size());
    }
  }
  if (intervals > CursorSpec::kMaxFilterIntervals) {
    return Status::InvalidArgument("cursor filter has too many intervals");
  }
  // Bounds what one frame can make every batch allocate: the output block
  // has one column per projection entry.
  if (spec.projection.size() > static_cast<size_t>(width)) {
    return Status::InvalidArgument(
        "cursor projection has more columns than the relation");
  }
  for (const int col : spec.projection) {
    if (col < 0 || col >= width) {
      return Status::InvalidArgument("cursor projection column out of range");
    }
  }
  const int64_t rows =
      static_cast<int64_t>(lease.generator().RowCount(spec.relation));
  Cursor cursor;
  cursor.relation_rows = rows;
  cursor.end_rank =
      spec.end_rank < 0 ? rows : std::min<int64_t>(spec.end_rank, rows);
  cursor.next_rank =
      std::max<int64_t>(0, std::min(spec.begin_rank, cursor.end_rank));
  cursor.source_width = width;
  cursor.out_width = spec.projection.empty()
                         ? width
                         : static_cast<int>(spec.projection.size());
  cursor.spec = std::move(spec);
  cursor.filter = kernels::BlockPredicate(cursor.spec.filter);
  if (!cursor.spec.projection.empty()) {
    cursor.live_columns = cursor.spec.filter.Columns();
    cursor.live_columns.insert(cursor.live_columns.end(),
                               cursor.spec.projection.begin(),
                               cursor.spec.projection.end());
  }
  std::lock_guard<std::mutex> lock(session->mu);
  if (options_.shared_scan) {
    // Every cursor joins the (summary, relation) scan group; grants only
    // take the shared path while the group has a second member, so a lone
    // cursor's grants stay private.
    cursor.group = scan_groups_.Join(session->summary_id,
                                     cursor.spec.relation, session->id,
                                     &cursor.member);
  }
  CursorHandle handle;
  handle.id = session->next_cursor_id++;
  session->cursors.emplace(handle.id, std::move(cursor));
  return handle;
}

StatusOr<BatchResult> RegenServer::NextBatch(SessionHandle session_handle,
                                             CursorHandle cursor_handle,
                                             RowBlock&& reuse) {
  trace::TraceScope span("serve/next_batch");
  ScopedLatencyTimer timer(&g_next_batch_us);
  HYDRA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         FindSession(session_handle.id));
  std::lock_guard<std::mutex> lock(session->mu);
  const auto it = session->cursors.find(cursor_handle.id);
  if (it == session->cursors.end()) return Status::NotFound("no such cursor");
  Cursor& cursor = it->second;
  BatchResult result;
  result.rows = std::move(reuse);
  RowBlock* out = &result.rows;
  out->Reset(cursor.out_width);

  // One admission grant per source morsel: a selective filter costs several
  // grants (other sessions interleave between them), never one unbounded
  // scan. The summary lease is taken inside the grant, so cache loads are
  // admission-controlled work too — and eviction between grants is fine:
  // the cursor addresses ranks, not a generator instance.
  const CancelScope scope = SessionScope(*session);
  Status status = Status::OK();
  while (out->empty() && cursor.next_rank < cursor.end_rank && status.ok()) {
    // Multicast fast path: a resident shared chunk is consumed without an
    // admission grant (see TrySharedFastPath) — the producing member's
    // grant covered the generation and charged every peer for it. Misses
    // and degraded grants fall through to admitted work below. A session
    // whose token bucket is overdrawn is kept off the fast path too:
    // admission-free serving must not outrun the rate limit.
    if (cursor.group != nullptr && scope.Check().ok() &&
        cursor.group->member_count() >= 2 &&
        EffectiveBatchRows() == options_.batch_rows &&
        !scheduler_.SessionThrottled(session->id) &&
        TrySharedFastPath(cursor, out)) {
      continue;
    }
    const Status admitted = scheduler_.Admit(session->id, [&] {
      StatusOr<SummaryLease> lease = store_.Acquire(session->summary_id);
      if (!lease.ok()) {
        status = lease.status();
        return;
      }
      const int64_t effective = EffectiveBatchRows();
      // Multicast path: while the scan group has company and the grant is
      // not degraded, serve this member from the group's shared chunk (one
      // generation pass per chunk across all members). Degraded grants
      // bypass sharing — their morsels are smaller than a chunk — and
      // re-engage at full batch size; a group that shrank back to one
      // member quietly resumes the cheaper private path below.
      if (cursor.group != nullptr && effective == options_.batch_rows &&
          cursor.group->member_count() >= 2) {
        status = SharedGrant(*session, cursor, lease->generator(), scope, out);
        return;
      }
      if (effective < options_.batch_rows) degraded_batches_.Inc();
      // Private grant: one fill of the morsel's ranks. An identity cursor
      // fills the batch itself; any other fills only the columns it reads
      // and fans out like a shared chunk.
      const int64_t begin = cursor.next_rank;
      const int64_t end = std::min(cursor.end_rank, begin + effective);
      const TupleGenerator& generator = lease->generator();
      if (cursor.filter.is_true() && cursor.spec.projection.empty()) {
        generator.FillBlockRange(cursor.spec.relation, begin, end, out);
        cursor.next_rank = end;
        return;
      }
      cursor.scratch.Reset(cursor.source_width);
      if (!cursor.live_columns.empty()) {
        cursor.scratch.SetLiveColumns(cursor.live_columns);
      }
      generator.FillBlockRange(cursor.spec.relation, begin, end,
                               &cursor.scratch);
      FanOut(cursor, cursor.scratch, begin, end, out);
    }, scope);
    if (status.ok()) status = admitted;
  }
  // A member that ends in cancel/deadline detaches here: the group's other
  // members keep sharing undisturbed, and this cursor — were it somehow
  // resumed — would stream privately.
  if (IsTerminalSignal(status)) DetachCursor(*session, cursor);
  MaybeLogSlowOp("next_batch", session_handle.id, session->summary_id,
                 cursor.next_rank, timer);
  HYDRA_RETURN_IF_ERROR(TallyTerminal(status));
  result.rank = cursor.next_rank;
  if (out->empty()) {
    result.done = true;
    return result;
  }
  batches_served_.Inc();
  rows_served_.Inc(static_cast<uint64_t>(out->num_rows()));
  // Post-paid rate accounting: the batch that overdraws the bucket still
  // serves; the *next* grant waits for the refill.
  scheduler_.SpendTokens(session->id, out->num_rows());
  return result;
}

bool RegenServer::TrySharedFastPath(Cursor& cursor, RowBlock* out) {
  const int64_t chunk_rows = cursor.group->chunk_rows();
  const int64_t chunk = cursor.next_rank / chunk_rows;
  ScanGroup::ChunkResult result;
  if (!cursor.group->TryAcquireResident(cursor.member, chunk, &result)) {
    return false;
  }
  const int64_t base = chunk * chunk_rows;
  const int64_t chunk_end =
      std::min(base + chunk_rows, cursor.relation_rows);
  FanOut(cursor, *result.block, base, chunk_end, out);
  return true;
}

Status RegenServer::SharedGrant(Session& session, Cursor& cursor,
                                const TupleGenerator& generator,
                                const CancelScope& scope, RowBlock* out) {
  const int64_t chunk_rows = cursor.group->chunk_rows();
  const int64_t chunk = cursor.next_rank / chunk_rows;
  const int64_t base = chunk * chunk_rows;
  const int64_t chunk_end =
      std::min(base + chunk_rows, cursor.relation_rows);
  ScanGroup::ChunkResult result;
  HYDRA_RETURN_IF_ERROR(cursor.group->AcquireChunk(
      cursor.member, chunk, scope,
      [&](RowBlock* block) {
        // The chunk is a pure function of (summary bytes, rank range):
        // chunk-aligned, member-independent, valid across evictions and
        // generator instances, so every member fans out byte-identically
        // to its solo stream.
        block->Reset(cursor.source_width);
        generator.FillBlockRange(cursor.spec.relation, base, chunk_end, block);
        return Status::OK();
      },
      &result));
  if (result.produced) {
    // Fairness: this one admission generated work every member consumes,
    // so every peer session is charged a turn of the rotation.
    for (const uint64_t peer : cursor.group->PeerSessions(session.id)) {
      scheduler_.Charge(peer, 1);
    }
  }
  FanOut(cursor, *result.block, base, chunk_end, out);
  return Status::OK();
}

// Fan this cursor's slice [next_rank, limit) out of the block with its own
// filter/projection kernels.
void RegenServer::FanOut(Cursor& cursor, const RowBlock& block, int64_t base,
                         int64_t chunk_end, RowBlock* out) {
  const int64_t limit = std::min(cursor.end_rank, chunk_end);
  const int64_t lo = cursor.next_rank - base;
  const int64_t hi = limit - base;
  cursor.next_rank = limit;
  const auto& projection = cursor.spec.projection;
  if (cursor.filter.is_true() && projection.empty()) {
    out->AppendRange(block, lo, hi - lo);
    return;
  }
  int64_t kept = hi - lo;
  const int32_t* sel = nullptr;
  if (!cursor.filter.is_true()) {
    cursor.filter.SelectRange(block, lo, hi, &cursor.sel);
    kept = static_cast<int64_t>(cursor.sel.size());
    if (kept == 0) return;  // all filtered: next grant advances
    sel = cursor.sel.data();
  }
  out->ResizeUninitialized(kept);
  for (int c = 0; c < cursor.out_width; ++c) {
    const Value* src = block.Column(projection.empty() ? c : projection[c]);
    Value* dst = out->MutableColumn(c);
    if (sel != nullptr) {
      kernels::Gather(src, sel, kept, dst);
    } else {
      std::copy(src + lo, src + hi, dst);
    }
  }
}

void RegenServer::DetachCursor(Session& session, Cursor& cursor) {
  if (cursor.group == nullptr) return;
  scan_groups_.Leave(session.summary_id, cursor.spec.relation, &cursor.group,
                     cursor.member);
  cursor.member = 0;
}

StatusOr<int64_t> RegenServer::CursorRank(SessionHandle session_handle,
                                          CursorHandle cursor_handle) {
  HYDRA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         FindSession(session_handle.id));
  std::lock_guard<std::mutex> lock(session->mu);
  const auto it = session->cursors.find(cursor_handle.id);
  if (it == session->cursors.end()) return Status::NotFound("no such cursor");
  return it->second.next_rank;
}

Status RegenServer::CloseCursor(SessionHandle session_handle,
                                CursorHandle cursor_handle) {
  HYDRA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         FindSession(session_handle.id));
  std::lock_guard<std::mutex> lock(session->mu);
  const auto it = session->cursors.find(cursor_handle.id);
  if (it == session->cursors.end()) return Status::NotFound("no such cursor");
  DetachCursor(*session, it->second);
  session->cursors.erase(it);
  return Status::OK();
}

StatusOr<Row> RegenServer::Lookup(SessionHandle session_handle, int relation,
                                  int64_t pk) {
  HYDRA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         FindSession(session_handle.id));
  std::lock_guard<std::mutex> lock(session->mu);
  const CancelScope scope = SessionScope(*session);
  Row out;
  Status status = Status::OK();
  const Status admitted = scheduler_.Admit(session->id, [&] {
    StatusOr<SummaryLease> lease = store_.Acquire(session->summary_id);
    if (!lease.ok()) {
      status = lease.status();
      return;
    }
    const Schema& schema = lease->summary().schema;
    if (relation < 0 || relation >= schema.num_relations()) {
      status = Status::InvalidArgument("lookup relation out of range");
      return;
    }
    if (pk < 0 ||
        pk >= static_cast<int64_t>(lease->generator().RowCount(relation))) {
      status = Status::OutOfRange("lookup pk out of range");
      return;
    }
    lease->generator().GetTuple(relation, pk, &out);
  }, scope);
  if (status.ok()) status = admitted;
  HYDRA_RETURN_IF_ERROR(TallyTerminal(status));
  lookups_served_.Inc();
  scheduler_.SpendTokens(session->id, 1);
  return out;
}

StatusOr<AnnotatedQueryPlan> RegenServer::ExecuteQuery(
    SessionHandle session_handle, const Query& query) {
  HYDRA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         FindSession(session_handle.id));
  std::lock_guard<std::mutex> lock(session->mu);
  const CancelScope scope = SessionScope(*session);
  StatusOr<AnnotatedQueryPlan> result =
      Status::Internal("query never admitted");
  const Status admitted = scheduler_.Admit(session->id, [&] {
    StatusOr<SummaryLease> lease = store_.Acquire(session->summary_id);
    if (!lease.ok()) {
      result = lease.status();
      return;
    }
    // The whole pipeline runs under one grant on this client's thread and
    // polls the scope before every morsel, so a long pipeline unwinds
    // within one morsel of a cancel.
    const Executor executor(lease->summary().schema, ExecOptions{1});
    result = executor.Execute(query, lease->generator(), &scope);
  }, scope);
  if (!admitted.ok()) result = admitted;  // fn never ran; this is the reason
  if (!result.ok()) return TallyTerminal(result.status());
  queries_served_.Inc();
  return result;
}

int64_t RegenServer::EffectiveBatchRows() const {
  if (options_.min_degraded_batch_rows <= 0 || !store_.Overcommitted()) {
    return options_.batch_rows;
  }
  // Overcommitted: every resident summary is pinned past the budget, so
  // shrink work quanta proportionally to the overshoot — grants stay cheap
  // and leases short-lived, which is what lets the cache recover. Content
  // never depends on the morsel size, only pacing does.
  const SummaryStore::Stats cache = store_.stats();
  if (cache.cached_bytes == 0) return options_.batch_rows;
  const double fill = static_cast<double>(options_.cache_bytes) /
                      static_cast<double>(cache.cached_bytes);
  int64_t rows = static_cast<int64_t>(
      static_cast<double>(options_.batch_rows) * fill);
  return std::max(rows, std::min(options_.min_degraded_batch_rows,
                                 options_.batch_rows));
}

void RegenServer::MaybeLogSlowOp(const char* op, uint64_t session_id,
                                 const std::string& summary_id, int64_t rank,
                                 const ScopedLatencyTimer& timer) {
  if (options_.slow_op_ms <= 0 || !timer.active()) return;
  const uint64_t us = timer.elapsed_us();
  if (us < static_cast<uint64_t>(options_.slow_op_ms) * 1000) return;
  g_slow_ops.Inc();
  std::fprintf(stderr,
               "[hydra.slow_op] op=%s session=%" PRIu64 " summary=%s"
               " rank=%" PRId64 " duration_us=%" PRIu64 "\n",
               op, session_id, summary_id.c_str(), rank, us);
}

Status RegenServer::TallyTerminal(Status status) {
  if (IsTerminalSignal(status)) {
    cancelled_requests_.Inc();
  }
  return status;
}

ServeStats RegenServer::stats() const {
  ServeStats s;
  const SummaryStore::Stats store = store_.stats();
  s.cache_hits = store.hits;
  s.cache_misses = store.misses;
  s.evictions = store.evictions;
  s.cached_bytes = store.cached_bytes;
  s.resident_summaries = store.resident;
  s.batches_served = batches_served_.value();
  s.rows_served = rows_served_.value();
  s.lookups_served = lookups_served_.value();
  s.queries_served = queries_served_.value();
  s.admission_waits = scheduler_.admission_waits();
  s.admission_grants = scheduler_.grants();
  const SharedScanMetrics& shared = scan_groups_.metrics();
  s.scan_groups_formed = shared.groups_formed.value();
  s.peak_group_fanout = static_cast<uint64_t>(shared.peak_fanout.value());
  s.shared_chunk_fills = shared.fills.value();
  s.shared_chunk_hits = shared.hits.value();
  s.catch_up_batches = shared.catch_up.value();
  s.shared_charges = scheduler_.charged();
  s.priority_skips = scheduler_.priority_skips();
  s.rate_deferrals = scheduler_.rate_deferrals();
  s.load_retries = store.load_retries;
  s.shed_requests = scheduler_.shed() + opens_shed_.value();
  s.degraded_batches = degraded_batches_.value();
  s.cancelled_requests = cancelled_requests_.value();
  return s;
}

std::vector<ScanGroupInfo> RegenServer::scan_group_infos() const {
  return scan_groups_.Infos();
}

}  // namespace hydra
