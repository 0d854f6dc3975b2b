// Thread pool for the parallel batch runtime: one FIFO queue under one
// lock.
//
// Design goals, in order: determinism of the *callers* (the pool never
// reorders a computation's arithmetic -- parallel users partition their
// output into disjoint ranges so results are bit-identical to the
// sequential path), nested submission (a task may submit subtasks and
// wait on them without deadlocking, because waiting threads help drain
// the queue), and exception propagation through std::future.
//
// Workers sleep on a condition variable whose predicate is checked under
// the lock submit() takes, so a queued task always wakes a worker.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gana {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a callable; the future carries its result or exception.
  /// Safe to call from worker threads (nested submission).
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(F&& f) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    push([task]() { (*task)(); });
    return future;
  }

  /// Blocks until `future` is ready, helping to execute queued tasks in
  /// the meantime (prevents deadlock when a worker waits on subtasks).
  /// Rethrows the task's exception, like future::get().
  template <typename T>
  T wait(std::future<T>& future) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!run_pending_task()) std::this_thread::yield();
    }
    return future.get();
  }

  /// True when the calling thread is a worker of *any* ThreadPool. Used
  /// to keep nested data parallelism (e.g. spmm inside a batch task)
  /// from oversubscribing the machine.
  [[nodiscard]] static bool inside_worker();

 private:
  void push(std::function<void()> task);
  /// Runs the oldest queued task on the calling thread, if there is one.
  bool run_pending_task();
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable ready_;  ///< a task was queued, or stop_ set
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< after what the workers use
};

/// Splits [0, n) into contiguous chunks of at most `grain` items and runs
/// `body(begin, end)` for each, using the pool's workers plus the calling
/// thread. Chunks are claimed, not queued: the caller and up to
/// pool->size() helper tasks each take the next unclaimed chunk until
/// none is left. So the caller runs only this loop's chunks, never other
/// queued work, and then waits only for chunks already running; a helper
/// that starts after the loop returned finds nothing to claim. Blocks
/// until every chunk finished and rethrows the exception of the
/// lowest-numbered chunk that threw. Falls back to a single sequential
/// call when `pool` is null, has no parallelism, or the range is one
/// chunk. Chunk boundaries depend only on (n, grain) -- never on the
/// thread count -- so callers that write disjoint ranges get
/// bit-identical results at any parallelism.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  F&& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->size() <= 1 || n <= grain) {
    body(std::size_t{0}, n);
    return;
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  // Shared with the helpers, which may outlive this call.
  struct Claims {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::mutex mutex;
    std::size_t error_chunk = SIZE_MAX;
    std::exception_ptr error;
  };
  auto claims = std::make_shared<Claims>();
  // `body` is called only after a successful claim, and this call returns
  // only once every claimed chunk finished, so no helper calls it later.
  auto work = [claims, &body, n, grain, chunks] {
    for (std::size_t c; (c = claims->next.fetch_add(1)) < chunks;) {
      try {
        body(c * grain, std::min(n, c * grain + grain));
      } catch (...) {
        std::lock_guard<std::mutex> lock(claims->mutex);
        if (c < claims->error_chunk) {
          claims->error_chunk = c;
          claims->error = std::current_exception();
        }
      }
      claims->finished.fetch_add(1);
    }
  };
  const std::size_t helpers = std::min(pool->size(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) (void)pool->submit(work);
  work();
  while (claims->finished.load() < chunks) {
    std::this_thread::yield();
  }
  // Move the error out: the last helper may free the claims on its own
  // thread, and the exception must be released on this one.
  const std::exception_ptr error = std::move(claims->error);
  if (error) std::rethrow_exception(error);
}

/// Process-wide pool for data parallelism inside a single pipeline run
/// (row-partitioned spmm, ...). Null until set_compute_threads(n > 1) is
/// called, so the library stays sequential -- and trivially deterministic
/// -- by default.
[[nodiscard]] ThreadPool* compute_pool();

/// (Re)configures the shared compute pool: n <= 1 disables it, 0 is not
/// special-cased here (use explicit hardware_concurrency if desired).
/// Not thread-safe against concurrent compute_pool() users; call during
/// startup or between runs.
void set_compute_threads(std::size_t n);

/// Current compute-pool width (1 when disabled).
[[nodiscard]] std::size_t compute_threads();

}  // namespace gana
