// ThreadPool: a small fixed-size pool of OS threads draining a FIFO task
// queue. The real-thread benchmark drivers and the concurrency tests use it
// to put K sessions on K actual threads (as opposed to sim/interleaver,
// which replays captured traces without any real parallelism).
//
// Semantics are deliberately minimal:
//   - Submit() enqueues a task; tasks must not throw.
//   - WaitIdle() blocks until the queue is empty AND no task is running.
//   - The destructor drains remaining tasks, then joins every worker.
#ifndef STEGFS_CONCURRENCY_THREAD_POOL_H_
#define STEGFS_CONCURRENCY_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stegfs {
namespace concurrency {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);
  // Blocks until every submitted task has finished.
  void WaitIdle();

  size_t size() const { return workers_.size(); }
  // True when called from one of this pool's worker threads.
  bool OnWorkerThread() const;

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks / shutdown
  std::condition_variable idle_cv_;  // WaitIdle waits for quiescence
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace concurrency
}  // namespace stegfs

#endif  // STEGFS_CONCURRENCY_THREAD_POOL_H_
