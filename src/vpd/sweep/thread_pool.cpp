#include "vpd/sweep/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "vpd/common/error.hpp"

namespace vpd {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  VPD_REQUIRE(task != nullptr, "cannot submit a null task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    VPD_REQUIRE(!shutdown_, "submit after shutdown");
    queue_.push_back({std::move(task), obs::WorkAccount::current()});
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock,
                       [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    std::exception_ptr error;
    try {
      const obs::WorkAccount::Scope scope(task.account);
      task.run();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = std::move(error);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace vpd
