#include "util/thread_pool.hpp"

namespace gana {
namespace {

/// Whether the calling thread is a worker of some pool. Thread-local so
/// nested pools compose.
thread_local bool tl_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::inside_worker() { return tl_worker; }

void ThreadPool::push(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  ready_.notify_one();
}

bool ThreadPool::run_pending_task() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::worker_loop() {
  tl_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) break;  // stopping, and the queue is drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
  tl_worker = false;
}

namespace {

std::unique_ptr<ThreadPool>& compute_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool* compute_pool() { return compute_pool_slot().get(); }

void set_compute_threads(std::size_t n) {
  auto& slot = compute_pool_slot();
  if (n <= 1) {
    slot.reset();
    return;
  }
  if (slot && slot->size() == n) return;
  slot.reset();  // join the old pool before spawning the new one
  slot = std::make_unique<ThreadPool>(n);
}

std::size_t compute_threads() {
  const ThreadPool* pool = compute_pool();
  return pool == nullptr ? 1 : pool->size();
}

}  // namespace gana
