// A small fixed-size thread pool, and ParallelFor: the codebase's one
// fan-out, and the pool's one submitter. Regeneration runs one index per
// view, materialization one per shard, and the engine one per query of a
// batch (docs/engine.md "Query batches"); a lone query never fans out, and
// no serving path starts a pool task.
//
// Determinism contract: the pool runs tasks, it never orders results. A
// caller that wants deterministic output gives every index its own output
// slot and reduces the slots sequentially after ParallelFor returns — the
// reduction order, not the execution order, defines the result.

#ifndef HYDRA_COMMON_THREAD_POOL_H_
#define HYDRA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"

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
  // whatever output slot the task writes. The pool tracks no completion:
  // a submitter that needs one waits on its own tasks, as ParallelFor does,
  // and the destructor runs every queued task before it returns.
  void Submit(std::function<void()> fn);

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
  bool shutdown_ = false;
};

// Runs fn(i) for i in [0, count) and returns once every call has finished.
// It puts min(width, count, pool->num_threads()) tasks on `pool`; each task
// claims the next unclaimed index until none is left, so at most that many
// calls are in flight. The calling thread only waits, and only for its own
// tasks, so concurrent callers can share a pool.
// A null pool, or one task, runs the loop on the calling thread. Once
// `cancel` (optional) trips, no index is claimed any more: the calls in
// flight finish, the rest never run, and the caller reports the scope's
// status. `fn` must not wait on other tasks of `pool`.
void ParallelFor(ThreadPool* pool, int width, int64_t count,
                 const std::function<void(int64_t)>& fn,
                 const CancelScope* cancel = nullptr);

// ParallelFor over every worker of `pool`.
void ParallelFor(ThreadPool& pool, int count,
                 const std::function<void(int)>& fn);

}  // namespace hydra

#endif  // HYDRA_COMMON_THREAD_POOL_H_
