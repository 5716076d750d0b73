#include "db/parallel.h"

#include <algorithm>
#include <string>
#include <utility>

namespace modb {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = int(std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(std::size_t(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

Status ValidateParallelOptions(const ParallelOptions& options) {
  if (options.num_threads > kMaxQueryThreads) {
    return Status::InvalidArgument(
        "ParallelOptions.num_threads = " + std::to_string(options.num_threads) +
        " exceeds kMaxQueryThreads = " + std::to_string(kMaxQueryThreads) +
        " (valid range: num_threads <= " + std::to_string(kMaxQueryThreads) +
        "; <= 0 selects one worker per pool thread)");
  }
  return Status::OK();
}

std::size_t ResolveWorkerCount(const ParallelOptions& options) {
  if (options.num_threads == 1) return 1;
  if (options.num_threads > 1) return std::size_t(options.num_threads);
  return std::size_t(std::max(1, ThreadPool::Shared().num_threads()));
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace modb
