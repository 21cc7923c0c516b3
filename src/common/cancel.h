// Cooperative cancellation and deadlines.
//
// A CancelToken is a shared flag the owner trips to revoke in-flight work;
// a Deadline is a monotonic-clock expiry. Neither preempts anything —
// long-running paths poll a CancelScope at their natural batch boundaries
// (before each morsel a query fills, before each index a ParallelFor
// claims, before each admission grant) and unwind with kCancelled /
// kDeadlineExceeded, so a slow query stops within one morsel of the signal
// rather than instantly but also rather than never. Nothing polls inside a
// generation fill: a serving grant fills at most batch_rows ranks, and
// FairScheduler::Admit checks the scope before every grant.
//
// CancelScope is a non-owning view combining up to two tokens (e.g. the
// client's own token plus the server's shutdown token) with a deadline; it
// is what gets threaded through the executor, serve sessions and the
// scheduler's admission. Checks are single relaxed atomic loads plus, when
// a deadline is set, one steady_clock read — cheap enough for per-batch
// polling.

#ifndef HYDRA_COMMON_CANCEL_H_
#define HYDRA_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace hydra {

// Shared-atomic cancellation flag. Thread-safe; typically owned via
// std::shared_ptr so the canceller and the workers agree on lifetime.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// Monotonic expiry time. Default-constructed = never expires.
class Deadline {
 public:
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline After(int64_t ms) {
    Deadline d;
    d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    d.finite_ = true;
    return d;
  }

  bool finite() const { return finite_; }
  bool Expired() const {
    return finite_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  std::chrono::steady_clock::time_point at_{};
  bool finite_ = false;
};

// Non-owning cancellation view: either token tripping or the deadline
// passing makes Check() non-OK. Copyable; the tokens must outlive it.
class CancelScope {
 public:
  CancelScope() = default;
  CancelScope(const CancelToken* token, Deadline deadline,
              const CancelToken* second_token = nullptr)
      : token_(token), second_(second_token), deadline_(deadline) {}

  bool cancelled() const {
    return (token_ != nullptr && token_->cancelled()) ||
           (second_ != nullptr && second_->cancelled()) ||
           deadline_.Expired();
  }

  // OK, or the reason work must stop (kCancelled wins over the deadline so
  // an explicit revoke is never misreported as a timeout).
  Status Check() const;

 private:
  const CancelToken* token_ = nullptr;
  const CancelToken* second_ = nullptr;
  Deadline deadline_;
};

}  // namespace hydra

#endif  // HYDRA_COMMON_CANCEL_H_
