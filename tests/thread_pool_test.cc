#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

namespace cure {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  ASSERT_EQ(setenv("CURE_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ASSERT_EQ(setenv("CURE_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);  // Falls back to hardware.
  ASSERT_EQ(unsetenv("CURE_THREADS"), 0);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> runs{0};
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&runs] {
      runs.fetch_add(1);
      return Status::OK();
    }));
  }
  for (std::future<Status>& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(runs.load(), 100);
}

TEST(ThreadPoolTest, SingleWorkerDispatchesInSubmissionOrder) {
  // The FIFO contract the build pipeline's format arbiter depends on: with
  // one worker the execution order must equal the submission order exactly.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&order, i] {
      order.push_back(i);  // Single worker: no race.
      return Status::OK();
    }));
  }
  for (std::future<Status>& f : futures) EXPECT_TRUE(f.get().ok());
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, StartedTasksFormPrefixOfSubmissionOrder) {
  // Multi-worker FIFO dispatch: a task is popped only after every earlier
  // task, so when task i starts the queue holds later tasks only — at most
  // kTasks - 1 - i of them. Every task then waits for a gate that opens
  // once all tasks are queued, so the queue really fills up behind the
  // first workers' tasks: a LIFO pool starts task kTasks - 1 with the
  // earlier tasks still queued and fails the check.
  constexpr int kTasks = 64;
  ThreadPool pool(4);
  std::promise<void> all_queued;
  std::shared_future<void> gate = all_queued.get_future().share();
  std::atomic<int> violations{0};
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&pool, &violations, gate, i] {
      if (pool.queue_depth() > static_cast<size_t>(kTasks - 1 - i)) {
        violations.fetch_add(1);
      }
      gate.wait();
      return Status::OK();
    }));
  }
  all_queued.set_value();
  for (std::future<Status>& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(violations.load(), 0);
}

TEST(ThreadPoolTest, HasIdleWorkerCountsRunningAndQueuedTasks) {
  // A task counts against the idle check from Submit on, whether it still
  // waits in the queue or already runs: the query engine reads a chunk on
  // its own thread rather than queue it behind another query's chunks.
  ThreadPool pool(2);
  EXPECT_TRUE(pool.HasIdleWorker());
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> started{0};
  auto blocked = [&started, gate] {
    started.fetch_add(1);
    gate.wait();
    return Status::OK();
  };
  std::vector<std::future<Status>> futures;
  futures.push_back(pool.Submit(blocked));
  EXPECT_TRUE(pool.HasIdleWorker());
  futures.push_back(pool.Submit(blocked));
  EXPECT_FALSE(pool.HasIdleWorker());
  while (started.load() < 2) std::this_thread::yield();
  EXPECT_FALSE(pool.HasIdleWorker());
  futures.push_back(pool.Submit(blocked));
  EXPECT_FALSE(pool.HasIdleWorker());
  release.set_value();
  for (std::future<Status>& f : futures) EXPECT_TRUE(f.get().ok());
  while (pool.busy_workers() > 0) std::this_thread::yield();
  EXPECT_TRUE(pool.HasIdleWorker());
}

TEST(ThreadPoolTest, ErrorStatusPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<Status> ok = pool.Submit([] { return Status::OK(); });
  std::future<Status> bad =
      pool.Submit([] { return Status::Internal("task failed"); });
  EXPECT_TRUE(ok.get().ok());
  Status s = bad.get();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "task failed");
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  ThreadPool pool(1);
  std::atomic<int> runs{0};
  std::vector<std::future<Status>> futures;
  // Head task blocks the single worker so the rest pile up in the queue.
  futures.push_back(pool.Submit([&runs] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    runs.fetch_add(1);
    return Status::OK();
  }));
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&runs] {
      runs.fetch_add(1);
      return Status::OK();
    }));
  }
  pool.Shutdown();  // Must run all 21 queued tasks before returning.
  EXPECT_EQ(runs.load(), 21);
  for (std::future<Status>& f : futures) EXPECT_TRUE(f.get().ok());
  pool.Shutdown();  // Idempotent.
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<bool> ran{false};
  std::future<Status> f = pool.Submit([&ran] {
    ran.store(true);
    return Status::OK();
  });
  Status s = f.get();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, DestructorJoinsWithQueuedWork) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&runs] {
        runs.fetch_add(1);
        return Status::OK();
      });
    }
  }  // Destructor implies Shutdown(): drains, then joins.
  EXPECT_EQ(runs.load(), 10);
}

}  // namespace
}  // namespace cure
