#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace hydra {

// Time a grant spent queued behind a full window (queued grants only — an
// immediate grant records nothing, so the histogram is the shape of the
// *waits*, matching the admission_waits counter's population).
HYDRA_METRIC_HISTOGRAM(g_admission_wait_us, "serve/admission_wait_us");

// Fires as a request is granted its slot, before the work runs: delay(ms)
// stretches the window a grant is held (starving other sessions — the
// fairness rotation must still bound the damage), error(...) turns the
// grant into a clean rejection the client sees as the request's Status.
HYDRA_FAILPOINT_DEFINE(g_fp_grant, "serve/grant");

FairScheduler::FairScheduler(const MetricScope& scope, int max_inflight,
                             int max_queued)
    : max_inflight_(std::max(1, max_inflight)),
      max_queued_(std::max(0, max_queued)),
      admission_waits_(scope.Name("admission_waits")),
      grants_(scope.Name("admission_grants")),
      charged_(scope.Name("shared_charges")),
      debt_skips_(scope.Name("debt_skips")),
      priority_skips_(scope.Name("priority_skips")),
      rate_deferrals_(scope.Name("rate_deferrals")),
      shed_(scope.Name("admissions_shed")) {}

Status FairScheduler::Admit(uint64_t session, const std::function<void()>& fn,
                            const CancelScope& cancel) {
  Ticket ticket;
  ticket.session = session;
  {
    std::unique_lock<std::mutex> lock(mu_);
    HYDRA_RETURN_IF_ERROR(cancel.Check());
    // Load shedding: a full queue fast-rejects instead of growing. A free
    // slot still admits immediately — shedding bounds *waiting*, not work.
    if (max_queued_ > 0 && num_waiting_ >= max_queued_ &&
        inflight_ >= max_inflight_) {
      shed_.Inc();
      return Status::ResourceExhausted("admission queue full");
    }
    waiting_[session].push_back(&ticket);
    ++num_waiting_;
    GrantLocked();
    if (!ticket.granted) {
      admission_waits_.Inc();
      ScopedLatencyTimer wait_timer(&g_admission_wait_us);
      // Deadlines and token-bucket refills are not hooked into the cv, so
      // poll: granted_cv_ wakes on grants and Kick(); the periodic timeout
      // bounds how stale an expired deadline can go unnoticed, and the
      // re-grant attempt lets a queue where every session is rate-limited
      // make progress once a bucket refills.
      while (!ticket.granted && !cancel.cancelled()) {
        granted_cv_.wait_for(lock, std::chrono::milliseconds(10));
        if (!ticket.granted) GrantLocked();
      }
      if (!ticket.granted) {
        // Cancelled while queued: withdraw the ticket and report why.
        RemoveTicketLocked(&ticket);
        if (num_waiting_ == 0 && inflight_ == 0) drained_cv_.notify_all();
        return cancel.Check();
      }
    }
  }
  Status injected;
  if (g_fp_grant.armed()) injected = g_fp_grant.Fire();
  if (injected.ok()) fn();
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    GrantLocked();
    if (num_waiting_ == 0 && inflight_ == 0) drained_cv_.notify_all();
  }
  return injected;
}

void FairScheduler::GrantLocked() {
  bool granted_any = false;
  const auto now = std::chrono::steady_clock::now();
  while (inflight_ < max_inflight_ && !waiting_.empty()) {
    auto it = waiting_.lower_bound(rr_next_);
    if (it == waiting_.end()) it = waiting_.begin();  // wrap the rotation
    if (waiting_.size() > 1) {
      // Shared-work debt: a session that consumed another member's
      // generation pass yields one turn per debt unit — but only while
      // someone else is actually waiting (debt shifts priority, it never
      // idles the window). Each skip repays a unit, so this loop
      // terminates: total debt is finite and capped.
      const auto debt = debt_.find(it->first);
      if (debt != debt_.end() && debt->second > 0) {
        if (--debt->second == 0) debt_.erase(debt);
        debt_skips_.Inc();
        rr_next_ = it->first + 1;
        continue;
      }
      // Priority weighting: every visit deposits the session's priority as
      // credit; a grant costs the highest priority among waiting sessions.
      // A priority-p session therefore covers the cost on every visit when
      // p == maxp, and every maxp/p-th visit otherwise — p grants per peer
      // grant, without ever starving anyone (credit accrues each skip, so
      // a grant is always at most kMaxPriority rotations away). With all
      // priorities equal this degenerates to the plain rotation.
      int maxp = 1;
      for (const auto& entry : waiting_) {
        const auto qit = qos_.find(entry.first);
        if (qit != qos_.end()) maxp = std::max(maxp, qit->second.priority);
      }
      if (maxp > 1) {
        QosState& qos = qos_[it->first];
        qos.credit += std::max(1, qos.priority);
        if (qos.credit < maxp) {
          priority_skips_.Inc();
          rr_next_ = it->first + 1;
          continue;
        }
        qos.credit -= maxp;
      }
    }
    // Rate limit: an overdrawn bucket defers the session's grant to any
    // non-throttled waiter (the probe bypasses the credit bookkeeping —
    // deferral is already the stronger penalty). When every waiting
    // session is throttled the window goes intentionally idle; Admit's
    // poll loop re-grants once a bucket refills.
    if (ThrottledLocked(it->first, now)) {
      rate_deferrals_.Inc();
      bool found = false;
      auto probe = it;
      for (size_t i = 1; i < waiting_.size(); ++i) {
        ++probe;
        if (probe == waiting_.end()) probe = waiting_.begin();
        if (!ThrottledLocked(probe->first, now)) {
          it = probe;
          found = true;
          break;
        }
      }
      if (!found) break;
    }
    Ticket* ticket = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) waiting_.erase(it);
    --num_waiting_;
    rr_next_ = ticket->session + 1;
    ticket->granted = true;
    grants_.Inc();
    ++inflight_;
    granted_any = true;
  }
  if (granted_any) granted_cv_.notify_all();
}

void FairScheduler::RemoveTicketLocked(Ticket* ticket) {
  const auto it = waiting_.find(ticket->session);
  if (it == waiting_.end()) return;
  for (auto dq_it = it->second.begin(); dq_it != it->second.end(); ++dq_it) {
    if (*dq_it == ticket) {
      it->second.erase(dq_it);
      --num_waiting_;
      break;
    }
  }
  if (it->second.empty()) waiting_.erase(it);
}

void FairScheduler::RefillLocked(QosState& qos,
                                 std::chrono::steady_clock::time_point now) {
  if (qos.rate <= 0) return;
  const double elapsed =
      std::chrono::duration<double>(now - qos.last_refill).count();
  if (elapsed <= 0) return;
  // Burst allowance: one second of credit, so a fresh or long-idle session
  // may serve a rate-sized burst before throttling engages.
  const double burst = static_cast<double>(qos.rate);
  qos.tokens = std::min(burst, qos.tokens + elapsed * burst);
  qos.last_refill = now;
}

bool FairScheduler::ThrottledLocked(uint64_t session,
                                    std::chrono::steady_clock::time_point now) {
  const auto it = qos_.find(session);
  if (it == qos_.end() || it->second.rate <= 0) return false;
  RefillLocked(it->second, now);
  return it->second.tokens <= 0;
}

void FairScheduler::SetSessionQos(uint64_t session, SessionQos qos) {
  std::lock_guard<std::mutex> lock(mu_);
  QosState& state = qos_[session];
  state.priority =
      std::min(kMaxPriority, std::max(1, qos.priority));
  state.rate = std::max<int64_t>(0, qos.rate_rows_per_sec);
  state.tokens = static_cast<double>(state.rate);  // start with full burst
  state.last_refill = std::chrono::steady_clock::now();
}

void FairScheduler::SpendTokens(uint64_t session, int64_t rows) {
  if (rows <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = qos_.find(session);
  if (it == qos_.end() || it->second.rate <= 0) return;
  RefillLocked(it->second, std::chrono::steady_clock::now());
  it->second.tokens -= static_cast<double>(rows);
}

bool FairScheduler::SessionThrottled(uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  return ThrottledLocked(session, std::chrono::steady_clock::now());
}

void FairScheduler::Charge(uint64_t session, int units) {
  if (units <= 0) return;
  // Cap: with a huge fan-out a member could otherwise be buried under more
  // debt than it can repay before the group moves on.
  constexpr int kMaxDebt = 64;
  std::lock_guard<std::mutex> lock(mu_);
  int& debt = debt_[session];
  debt = std::min(debt + units, kMaxDebt);
  charged_.Inc(static_cast<uint64_t>(units));
}

void FairScheduler::ForgetSession(uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  debt_.erase(session);
  qos_.erase(session);
}

void FairScheduler::Kick() {
  std::lock_guard<std::mutex> lock(mu_);
  granted_cv_.notify_all();
}

void FairScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock,
                   [this] { return num_waiting_ == 0 && inflight_ == 0; });
}

int FairScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_waiting_;
}

}  // namespace hydra
