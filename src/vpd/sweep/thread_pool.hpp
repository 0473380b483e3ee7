// Minimal fixed-size worker pool for the sweep engine and the evaluation
// service. Tasks are opaque closures executed in FIFO submission order
// (though completion order is scheduler-dependent); the pool exists so a
// SweepRunner or EvaluationService can saturate the machine while each
// task writes only to its own pre-assigned result slot. An exception that
// escapes a task no longer terminates the process: the worker catches it,
// the first one per wait_idle() epoch is kept (later ones in the same
// epoch are dropped — workers keep draining the queue), and the next
// wait_idle() call rethrows it to the waiter. Harnesses that want
// per-task error attribution (the sweep runner, the service) still wrap
// their evaluations in their own try/catch and never trip this path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "vpd/obs/trace.hpp"

namespace vpd {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 picks std::thread::hardware_concurrency()
  /// (at least one). The pool is fixed-size for its lifetime. If a worker
  /// fails to start, joins the ones already started and rethrows.
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue (pending tasks still run), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task to run under the calling thread's current work
  /// account. Thread-safe; may be called from worker threads (tasks may
  /// submit follow-up tasks).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle. Tasks
  /// submitted while waiting extend the wait. If any task threw since the
  /// last wait_idle(), rethrows the first such exception (the epoch's
  /// capture is cleared by the rethrow; the pool stays usable). An
  /// exception still pending at destruction is discarded.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  struct Task {
    std::function<void()> run;
    obs::WorkAccount* account{nullptr};  // current at submit
  };

  void worker_loop();
  /// Lets the workers drain the queue and exit, then joins them.
  void stop();

  std::mutex mutex_;
  std::condition_variable task_ready_;   // workers wait for work/shutdown
  std::condition_variable idle_;         // wait_idle waits for quiescence
  std::deque<Task> queue_;
  std::size_t active_{0};  // tasks currently executing
  std::exception_ptr first_error_;  // first escaped task exception
  bool shutdown_{false};
  std::vector<std::thread> workers_;
};

}  // namespace vpd
