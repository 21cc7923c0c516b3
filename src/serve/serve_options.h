// Configuration and observability types of the dynamic-regeneration service
// (docs/serve.md). One ServeOptions configures the whole server: the summary
// cache budget, the admission window, and the per-request work bound.

#ifndef HYDRA_SERVE_SERVE_OPTIONS_H_
#define HYDRA_SERVE_SERVE_OPTIONS_H_

#include <cstdint>

namespace hydra {

struct ServeOptions {
  // Byte budget of the summary cache. Unpinned summaries beyond the budget
  // are evicted LRU-first and transparently reloaded from disk on the next
  // acquire; pinned (in-use) summaries are never evicted, so the resident
  // set may transiently exceed the budget under load.
  uint64_t cache_bytes = 64ull << 20;
  // Source ranks generated per admitted cursor grant: the unit of work one
  // NextBatch admission buys, and therefore the granularity at which the
  // scheduler interleaves sessions. Stream *content* never depends on it.
  int64_t batch_rows = 4096;
  // Concurrently admitted requests; 0 = one per hardware thread. Every
  // request runs on the thread that called the server, so this bounds the
  // work running at once and is the backpressure knob: clients beyond the
  // window queue in the fair round-robin admission queue.
  int max_inflight = 0;

  // --- shared scan (docs/serve.md) ---------------------------------------
  // Multicast regeneration: cursors over the same (summary, relation) form
  // a scan group, and while a group has >= 2 members each grant serves the
  // member from a shared batch_rows-aligned chunk — one generation pass per
  // chunk feeds every member instead of one pass per member. Streams stay
  // byte-identical to their solo runs (fan-out is the member's own
  // filter/projection over the shared block). Off = every cursor generates
  // privately, the pre-shared-scan behavior.
  bool shared_scan = true;
  // Resident chunks per scan group (the shared-chunk ring). Members whose
  // ranks fall within this many chunks of each other share every pass; a
  // straggler farther behind regenerates its own chunks (bounded catch-up)
  // until it re-enters the window.
  int shared_scan_chunks = 4;

  // --- failure domain (docs/robustness.md) -------------------------------
  // Load shedding: admission requests beyond this many queued waiters are
  // fast-rejected with kResourceExhausted instead of queueing unboundedly,
  // and OpenSession refuses new sessions while the queue is that deep.
  // 0 = unbounded (the pre-shedding behavior).
  int max_queued = 0;
  // Hard cap on concurrently open sessions; opens beyond it are rejected
  // with kResourceExhausted. 0 = unbounded.
  int max_sessions = 0;
  // Degradation before refusal: while the summary cache is overcommitted
  // (pinned entries exceed cache_bytes), cursor grants shrink their morsel
  // proportionally — smaller work quanta under memory pressure — down to
  // this floor. Stream *content* never depends on it. 0 disables.
  int64_t min_degraded_batch_rows = 64;
  // Transient-load retry: a summary load failing with kIoError or
  // kUnavailable is retried up to this many additional times with capped
  // exponential backoff and deterministic jitter.
  int load_retries = 3;
  int64_t load_retry_base_ms = 2;   // backoff = base << attempt, jittered
  int64_t load_retry_max_ms = 100;  // cap per sleep

  // --- observability (docs/observability.md) -----------------------------
  // Slow-op log: a NextBatch or OpenSession whose end-to-end latency
  // reaches this threshold emits one structured stderr line (session id,
  // summary id, rank, duration), riding the same measurement its latency
  // histogram records. 0 = disabled.
  int64_t slow_op_ms = 0;
};

// RegenServer::stats(): plain values read from the server's registry
// metrics ("serve/<field>" for most fields; docs/observability.md maps
// each one). Counts are monotonic; cached_bytes, resident_summaries and
// peak_group_fanout are levels.
struct ServeStats {
  // Summary cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;  // disk loads, including reloads after eviction
  uint64_t evictions = 0;
  uint64_t cached_bytes = 0;    // resident bytes right now
  uint64_t resident_summaries = 0;
  // Serving.
  uint64_t batches_served = 0;  // non-empty cursor batches handed out
  uint64_t rows_served = 0;     // rows across those batches
  uint64_t lookups_served = 0;
  uint64_t queries_served = 0;  // full engine pipelines
  uint64_t admission_waits = 0;  // grants that queued behind a full window
  uint64_t admission_grants = 0;  // tickets granted a slot by the
                                  // fair scheduler
  // Shared scan.
  uint64_t scan_groups_formed = 0;  // groups that reached >= 2 members
  uint64_t peak_group_fanout = 0;   // most members any group ever had
  uint64_t shared_chunk_fills = 0;  // generation passes into shared chunks
  uint64_t shared_chunk_hits = 0;   // member grants served from a resident
                                    // chunk — generation passes saved
  uint64_t catch_up_batches = 0;    // chunk fills behind the group frontier
                                    // (late joiners regenerating their
                                    // missed prefix)
  uint64_t shared_charges = 0;      // fairness debt units charged to members
                                    // a shared pass served
  // QoS (docs/serve.md): per-session priority + rate limit, set at
  // OpenSession (OpenSessionRequest) and enforced by the FairScheduler.
  uint64_t priority_skips = 0;    // rotation turns yielded to a
                                  // higher-priority session
  uint64_t rate_deferrals = 0;    // grants deferred by a drained
                                  // token bucket
  // Failure domain.
  uint64_t load_retries = 0;      // transient summary-load attempts retried
  uint64_t shed_requests = 0;     // admissions/opens rejected by shedding
  uint64_t degraded_batches = 0;  // cursor grants shrunk under overcommit
  uint64_t cancelled_requests = 0;  // requests ended by cancel/deadline
};

}  // namespace hydra

#endif  // HYDRA_SERVE_SERVE_OPTIONS_H_
