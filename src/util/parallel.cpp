#include "util/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

namespace aigml {

namespace {

std::atomic<int> g_default_threads{0};

int env_threads() {
  const char* raw = std::getenv("AIGML_THREADS");
  if (raw == nullptr) return 0;
  try {
    return std::stoi(raw);
  } catch (...) {
    return 0;
  }
}

}  // namespace

int default_num_threads() {
  const int forced = g_default_threads.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  const int env = env_threads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_default_threads(int n) {
  g_default_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads_ = num_threads > 0 ? num_threads : default_num_threads();
  // The calling thread is worker 0; spawn only the extras.
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_tasks() {
  const std::function<void(std::size_t)>& fn = *job_;
  const std::size_t n = job_size_;
  for (;;) {
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      // Abandon remaining indices so the pool drains quickly.
      next_index_.store(n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      // A worker joins a job only while unclaimed participant slots remain;
      // small jobs (n-1 < worker count) leave the surplus workers asleep.
      work_ready_.wait(lock, [&] {
        return stopping_ ||
               (epoch_ != seen_epoch && participants_claimed_ < participants_target_);
      });
      if (stopping_) return;
      seen_epoch = epoch_;
      ++participants_claimed_;
    }
    run_tasks();
    {
      std::lock_guard lock(mutex_);
      if (--busy_workers_ == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Single-thread (or single-task) fast path: no synchronization at all.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const int target = static_cast<int>(std::min(workers_.size(), n - 1));
  {
    std::lock_guard lock(mutex_);
    job_ = &fn;
    job_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    participants_target_ = target;
    participants_claimed_ = 0;
    busy_workers_ = target;
    first_error_ = nullptr;
    ++epoch_;
  }
  // Wake only as many workers as the job can use.  A worker not yet back in
  // wait() when its notify fires still joins: the wait predicate re-checks
  // epoch and claim availability on entry.
  for (int i = 0; i < target; ++i) work_ready_.notify_one();
  run_tasks();  // the calling thread participates
  std::unique_lock lock(mutex_);
  // Close the claim window.  A notification can be absorbed by a worker
  // that is already back in wait() from an earlier job (its predicate was
  // false then), so some slots may never be claimed; the job is done by now,
  // so drop them instead of waiting for workers that will not come.
  busy_workers_ -= participants_target_ - participants_claimed_;
  participants_target_ = participants_claimed_;
  work_done_.wait(lock, [&] { return busy_workers_ == 0; });
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

}  // namespace aigml
