#include "common/thread_pool.h"

#include <algorithm>

#include "common/env.h"

namespace cure {

int ThreadPool::DefaultThreadCount() {
  const int64_t env = EnvInt64("CURE_THREADS", 0);
  if (env > 0) return static_cast<int>(std::min<int64_t>(env, 1024));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

std::future<Status> ThreadPool::Submit(std::function<Status()> task) {
  std::packaged_task<Status()> wrapped([this, task = std::move(task)] {
    Status status = task();
    // Counted done before the future is ready: a caller that has seen every
    // task it submitted finish also sees their workers idle
    // (HasIdleWorker).
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    return status;
  });
  std::future<Status> future = wrapped.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      // Resolve the future with an error instead of running the task.
      std::packaged_task<Status()> rejected(
          [] { return Status::Internal("ThreadPool is shut down"); });
      std::future<Status> f = rejected.get_future();
      rejected();
      return f;
    }
    queue_.push_back(std::move(wrapped));
    tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<Status()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutting down and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      // Counted busy under the lock that pops it, so HasIdleWorker never
      // sees a task that is neither queued nor busy.
      busy_workers_.fetch_add(1, std::memory_order_relaxed);
    }
    task();  // Status travels through the promise; tasks do not throw.
  }
}

}  // namespace cure
