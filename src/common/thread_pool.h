#ifndef CURE_COMMON_THREAD_POOL_H_
#define CURE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace cure {

/// A fixed-size worker pool with a strict-FIFO task queue.
///
/// Tasks are `Status()` callables; failures propagate through the returned
/// future instead of exceptions (the library never throws). The FIFO
/// dispatch order is part of the contract: the build pipeline submits
/// per-partition construction tasks in partition order and relies on the
/// invariant that the set of started tasks is always a prefix of the
/// submission order (a task may block waiting on an earlier task, never on
/// a later one, so dispatch-in-order makes such waits deadlock-free).
class ThreadPool {
 public:
  /// Worker count used for `num_threads = 0`: the CURE_THREADS environment
  /// variable when set to a positive value, otherwise
  /// std::thread::hardware_concurrency(). Always >= 1.
  static int DefaultThreadCount();

  /// Starts `num_threads` workers (0 = DefaultThreadCount()).
  explicit ThreadPool(int num_threads = 0);

  /// Implies Shutdown(): drains queued tasks, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. After Shutdown() the task is not run and the future
  /// resolves to an error Status instead.
  std::future<Status> Submit(std::function<Status()> task);

  /// Stops accepting new tasks, runs every task already queued to
  /// completion, and joins the workers. Idempotent.
  void Shutdown();

  /// ---- Observability (satellite: queue depth and worker utilization) ----
  /// Tasks currently waiting for a worker.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  /// Workers currently running a task.
  int busy_workers() const {
    return busy_workers_.load(std::memory_order_relaxed);
  }
  /// True when a task submitted now would start at once: fewer tasks are
  /// running or queued than there are workers. A snapshot — another thread
  /// may take the idle worker before this caller submits.
  bool HasIdleWorker() const {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t busy = busy_workers_.load(std::memory_order_relaxed);
    return busy + queue_.size() < workers_.size();
  }
  /// Tasks accepted by Submit() over the pool's lifetime.
  uint64_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }
  /// Tasks that finished running.
  uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<Status()>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
  std::atomic<int> busy_workers_{0};
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_completed_{0};
};

}  // namespace cure

#endif  // CURE_COMMON_THREAD_POOL_H_
