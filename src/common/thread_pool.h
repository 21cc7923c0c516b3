// A small fixed-size thread pool for embarrassingly parallel pipeline
// stages (one task per view in HydraRegenerator::Regenerate).
//
// Determinism contract: the pool runs tasks, it never orders results. A
// caller that wants deterministic output gives every task its own output
// slot, submits in a fixed order, calls Wait(), and then reduces the slots
// sequentially — the reduction order, not the execution order, defines the
// result.

#ifndef HYDRA_COMMON_THREAD_POOL_H_
#define HYDRA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hydra {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (minimum 1). With exactly 1 requested
  // worker no thread is spawned at all: Submit runs the task inline, which
  // keeps single-threaded callers allocation- and synchronization-free.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn`. Tasks must not throw; error reporting goes through
  // whatever output slot the task writes.
  void Submit(std::function<void()> fn);

  // Blocks until every submitted task has finished running.
  void Wait();

  int num_threads() const { return num_threads_; }

  // Hardware concurrency with a sane floor (hardware_concurrency() may
  // return 0 on exotic platforms).
  static int DefaultThreads();

 private:
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  int in_flight_ = 0;  // queued + currently running tasks
  bool shutdown_ = false;
};

// Runs fn(i) for i in [0, count) on `pool`, blocking until all complete.
// Iteration-to-thread assignment is unspecified; determinism comes from each
// iteration owning its own slot (see the class comment).
void ParallelFor(ThreadPool& pool, int count,
                 const std::function<void(int)>& fn);

// Tracks a caller's own in-flight tasks: Add() before submitting, Done() at
// task end, Wait() blocks until the count returns to zero. Unlike
// ThreadPool::Wait — which is global to the pool — a WaitGroup scopes
// completion to one caller's submissions, so nested parallel operators can
// share a pool without waiting on each other's work.
class WaitGroup {
 public:
  void Add(int n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += n;
  }
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    cv_.notify_all();
  }
  // Blocks until every Add()ed task has Done()d.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int pending_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_COMMON_THREAD_POOL_H_
