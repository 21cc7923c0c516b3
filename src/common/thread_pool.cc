#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/failpoint.h"

namespace hydra {

// Delay-only chaos hook: perturbs task start order (a submitted task sits
// in the queue while the worker sleeps) and, inside ParallelFor, the order
// of the indices (a claimed index waits while other tasks claim past it),
// shaking out order-dependence in "deterministic at any thread count"
// claims. No error path — pool tasks report failure through their output
// slots.
HYDRA_FAILPOINT_DEFINE(g_fp_dispatch, "thread_pool/dispatch");

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  if (num_threads_ == 1) return;  // inline mode
  workers_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (workers_.empty()) {
    HYDRA_FAILPOINT_HIT(g_fp_dispatch);
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  work_ready_.notify_one();
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    HYDRA_FAILPOINT_HIT(g_fp_dispatch);
    task();
  }
}

void ParallelFor(ThreadPool* pool, int width, int64_t count,
                 const std::function<void(int64_t)>& fn,
                 const CancelScope* cancel) {
  const auto stopped = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };
  const int64_t tasks =
      pool == nullptr
          ? 1
          : std::min<int64_t>({width, count, pool->num_threads()});
  if (tasks <= 1) {
    for (int64_t i = 0; i < count && !stopped(); ++i) fn(i);
    return;
  }
  // `pending` counts the tasks still claiming. The last one notifies while
  // it holds `mu`, so the caller cannot return, and destroy this frame,
  // before the notify is done.
  std::atomic<int64_t> next{0};
  std::mutex mu;
  int64_t pending = tasks;  // guarded by mu
  std::condition_variable all_done;
  for (int64_t t = 0; t < tasks; ++t) {
    pool->Submit([&] {
      while (!stopped()) {
        const int64_t i = next++;
        if (i >= count) break;
        HYDRA_FAILPOINT_HIT(g_fp_dispatch);
        fn(i);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) all_done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  all_done.wait(lock, [&pending] { return pending == 0; });
}

void ParallelFor(ThreadPool& pool, int count,
                 const std::function<void(int)>& fn) {
  ParallelFor(&pool, pool.num_threads(), count,
              [&fn](int64_t i) { fn(static_cast<int>(i)); });
}

}  // namespace hydra
