// FairScheduler — admission control for the dynamic-regeneration service.
//
// Every unit of serving work (one cursor morsel, one point lookup, one
// engine pipeline) passes through Admit(): the caller blocks until a slot
// of the bounded inflight window is granted, runs its work, and releases
// the slot. Grants rotate round-robin over the sessions that have waiters,
// so a session streaming a giant scan (many back-to-back requests) cannot
// starve point-lookup sessions: after each grant the rotation cursor moves
// past the granted session, and its next request queues behind every other
// waiting session's. The window bound is the backpressure mechanism — work
// admitted concurrently never exceeds max_inflight, no matter how many
// clients are connected.
//
// QoS (docs/serve.md): each session may carry a SessionQos, set at
// OpenSession. `priority` weights the rotation — while several sessions
// contend, a priority-p session earns p grants for every one a priority-1
// peer earns (a credit scheme: each rotation visit deposits the session's
// priority, a grant costs the highest waiting priority, and a visit whose
// balance can't cover the cost yields the turn). `rate_rows_per_sec`
// token-buckets the session's served rows: the server deposits a spend
// after each batch, and while the bucket is overdrawn the rotation defers
// the session's grants. Priority (like shared-scan debt) shifts *relative*
// standing only — a low-priority session still runs whenever nobody else
// is waiting — but a rate limit is absolute: a throttled session waits for
// its refill even with the window idle. Default QoS (priority 1, no rate)
// reproduces plain round-robin exactly.
//
// Failure domain (docs/robustness.md): Admit returns a Status. A request
// whose CancelScope trips while it waits leaves the queue with
// kCancelled / kDeadlineExceeded; when `max_queued` > 0, a request arriving
// at a full queue is fast-rejected with kResourceExhausted (load shedding)
// instead of queueing unboundedly. Kick() wakes every waiter to re-check
// its scope (the server calls it after cancelling sessions); Drain() blocks
// until nothing is admitted or queued — the graceful-shutdown barrier.
//
// Determinism: the scheduler orders *work*, never results. Each request's
// output is a pure function of (summary, cursor spec, rank), so any grant
// interleaving produces the same per-client streams.

#ifndef HYDRA_SERVE_SCHEDULER_H_
#define HYDRA_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>

#include "common/cancel.h"
#include "common/metrics.h"
#include "common/status.h"

namespace hydra {

// Per-session scheduling knobs (see the QoS block above). Defaults are the
// unweighted, unlimited behavior.
struct SessionQos {
  int priority = 1;               // clamped to [1, kMaxPriority]
  int64_t rate_rows_per_sec = 0;  // 0 = unlimited
};

class FairScheduler {
 public:
  // Priorities above this clamp down; bounds how long the rotation can
  // favor one session before every waiter gets a turn.
  static constexpr int kMaxPriority = 8;

  // max_queued: waiters allowed in the admission queue before new requests
  // are shed with kResourceExhausted; 0 = unbounded. The tallies below are
  // metrics under `scope` (the owning server's), which must outlive this.
  FairScheduler(const MetricScope& scope, int max_inflight, int max_queued = 0);

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  // Blocks until `session`'s turn at a free slot, runs `fn` on the calling
  // thread, then releases the slot and grants the next waiter. Returns
  // non-OK without running `fn` when the queue is full (shedding) or
  // `cancel` trips first. Reentrant calls from inside `fn` would deadlock
  // the calling session; serving work never nests admissions.
  Status Admit(uint64_t session, const std::function<void()>& fn,
               const CancelScope& cancel = {});

  // Installs `session`'s QoS (priority clamped to [1, kMaxPriority]); the
  // token bucket starts with one second of burst credit. Absent sessions
  // run at the defaults.
  void SetSessionQos(uint64_t session, SessionQos qos);

  // Deducts `rows` from the session's token bucket (no-op when the session
  // has no rate limit). The server calls it after serving a batch, so one
  // oversized batch overdraws the bucket and the session pauses until the
  // refill catches up — average throughput converges on the configured
  // rate without splitting batches.
  void SpendTokens(uint64_t session, int64_t rows);

  // True while the session's token bucket is overdrawn. The server gates
  // admission-free serving (the shared-scan fast path) on this so a rate
  // limit holds even for work that never queues.
  bool SessionThrottled(uint64_t session);

  // Fairness accounting for shared work: records that `session` was served
  // `units` grants' worth of work it did not pay admission for (a shared
  // scan pass another member produced). Each debt unit makes the rotation
  // skip one of the session's turns — but only while some other session is
  // waiting, so debt throttles relative priority, never absolute progress.
  // Debt is capped (kMaxDebt) so a long-running group cannot bury a member.
  void Charge(uint64_t session, int units);

  // Drops any outstanding debt and QoS state of `session` (the server
  // calls it when the session closes, so the maps stay bounded by live
  // sessions).
  void ForgetSession(uint64_t session);

  // Wakes every waiter so it re-evaluates its CancelScope. Call after
  // cancelling tokens that queued waiters are watching.
  void Kick();

  // Blocks until no work is admitted or queued. With every session
  // cancelled and Kick()ed this terminates: waiters leave cancelled,
  // in-flight work finishes its bounded quantum.
  void Drain();

  int max_inflight() const { return max_inflight_; }
  int max_queued() const { return max_queued_; }
  // Grants that found the window full and had to queue.
  uint64_t admission_waits() const { return admission_waits_.value(); }
  // Tickets granted a slot (every admission that ran its work).
  uint64_t grants() const { return grants_.value(); }
  // Debt units recorded by Charge().
  uint64_t charged() const { return charged_.value(); }
  // Turns the rotation skipped to repay debt.
  uint64_t debt_skips() const { return debt_skips_.value(); }
  // Turns yielded to a higher-priority session (QoS weighting).
  uint64_t priority_skips() const { return priority_skips_.value(); }
  // Grants deferred because the session's token bucket was overdrawn.
  uint64_t rate_deferrals() const { return rate_deferrals_.value(); }
  // Requests fast-rejected by the queue-depth bound.
  uint64_t shed() const { return shed_.value(); }
  // Waiters queued right now (the shedding signal OpenSession consults).
  int queued() const;

 private:
  struct Ticket {
    uint64_t session = 0;
    bool granted = false;
  };
  struct QosState {
    int priority = 1;
    int64_t rate = 0;   // rows/sec; 0 = unlimited
    double tokens = 0;  // may go negative (post-paid batches)
    // Rotation credit for priority weighting; see GrantLocked.
    int credit = 0;
    std::chrono::steady_clock::time_point last_refill;
  };

  // Grants free slots to waiting tickets in round-robin session order,
  // modulated by debt, priority credit, and rate limits. Caller holds mu_;
  // notifies when any ticket was granted.
  void GrantLocked();
  // Removes a not-yet-granted ticket whose owner is abandoning the wait.
  void RemoveTicketLocked(Ticket* ticket);
  // Tops up the bucket from elapsed time (capped at one second of burst).
  static void RefillLocked(QosState& qos,
                           std::chrono::steady_clock::time_point now);
  // True if `session` has a rate limit and its bucket is overdrawn at
  // `now`. Caller holds mu_.
  bool ThrottledLocked(uint64_t session,
                       std::chrono::steady_clock::time_point now);

  const int max_inflight_;
  const int max_queued_;
  mutable std::mutex mu_;
  std::condition_variable granted_cv_;
  std::condition_variable drained_cv_;
  // session -> FIFO of that session's waiting tickets. Ordered map: the
  // rotation cursor walks sessions in id order, wrapping.
  std::map<uint64_t, std::deque<Ticket*>> waiting_;
  int num_waiting_ = 0;  // total tickets across waiting_
  uint64_t rr_next_ = 0;  // first session id to consider for the next grant
  int inflight_ = 0;
  // session -> outstanding shared-work debt (absent = 0), capped per
  // session so totals stay finite and GrantLocked always terminates.
  std::map<uint64_t, int> debt_;
  // session -> QoS state (absent = defaults). Entries are created by
  // SetSessionQos and by the credit/bucket bookkeeping, erased by
  // ForgetSession.
  std::map<uint64_t, QosState> qos_;

  Counter admission_waits_;
  Counter grants_;
  Counter charged_;
  Counter debt_skips_;
  Counter priority_skips_;
  Counter rate_deferrals_;
  Counter shed_;
};

}  // namespace hydra

#endif  // HYDRA_SERVE_SCHEDULER_H_
