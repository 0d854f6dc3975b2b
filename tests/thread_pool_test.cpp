#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "linalg/sparse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gana {
namespace {

TEST(ThreadPool, CompletesSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += pool.wait(f);
  long long expected = 0;
  for (int i = 0; i < 100; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  auto f = pool.submit([]() { return std::string("done"); });
  EXPECT_EQ(pool.wait(f), "done");
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int {
    throw std::runtime_error("boom in worker");
  });
  try {
    pool.wait(f);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom in worker");
  }
  // The pool must stay usable after a task threw.
  auto g = pool.submit([]() { return 7; });
  EXPECT_EQ(pool.wait(g), 7);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  ThreadPool pool(2);
  // Each outer task fans out inner tasks and waits on them from inside a
  // worker thread; with help-while-waiting this completes even when the
  // outer tasks occupy every worker.
  std::vector<std::future<int>> outer;
  for (int t = 0; t < 8; ++t) {
    outer.push_back(pool.submit([&pool, t]() {
      std::vector<std::future<int>> inner;
      for (int i = 0; i < 16; ++i) {
        inner.push_back(pool.submit([t, i]() { return t * 100 + i; }));
      }
      int sum = 0;
      for (auto& f : inner) sum += pool.wait(f);
      return sum;
    }));
  }
  for (int t = 0; t < 8; ++t) {
    int expected = 0;
    for (int i = 0; i < 16; ++i) expected += t * 100 + i;
    EXPECT_EQ(pool.wait(outer[static_cast<std::size_t>(t)]), expected);
  }
}

TEST(ThreadPool, StressThousandsOfTinyTasks) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  const int kTasks = 5000;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([&counter]() {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) pool.wait(f);
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPool, InsideWorkerFlag) {
  EXPECT_FALSE(ThreadPool::inside_worker());
  ThreadPool pool(2);
  // Block on the future directly: pool.wait() would help by running the
  // task on this (non-worker) thread, where inside_worker() is false.
  auto f = pool.submit([]() { return ThreadPool::inside_worker(); });
  EXPECT_TRUE(f.get());
  EXPECT_FALSE(ThreadPool::inside_worker());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1237;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(&pool, n, 16, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, NullPoolRunsSequentially) {
  std::size_t calls = 0, covered = 0;
  parallel_for(nullptr, 100, 8, [&](std::size_t begin, std::size_t end) {
    ++calls;
    covered += end - begin;
  });
  EXPECT_EQ(calls, 1u);  // one sequential chunk
  EXPECT_EQ(covered, 100u);
}

TEST(ParallelFor, PropagatesChunkException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 256, 8,
                   [](std::size_t begin, std::size_t /*end*/) {
                     if (begin == 64) throw std::logic_error("bad chunk");
                   }),
      std::logic_error);
}

TEST(ParallelFor, RethrowsTheLowestFailingChunk) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(&pool, 64, 1, [](std::size_t begin, std::size_t /*end*/) {
        if (begin == 10 || begin == 40) {
          throw std::runtime_error(std::to_string(begin));
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "10");
    }
  }
}

TEST(ParallelFor, CallerRunsOnlyItsOwnChunks) {
  // Both workers are blocked, so the loop's helper tasks queue behind a
  // foreign task. The calling thread must claim every chunk itself and
  // return without running the foreign task; the helpers start after
  // the loop returned and must find nothing left to claim.
  ThreadPool pool(2);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> blocked{0};
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(pool.submit([gate, &blocked] {
      blocked.fetch_add(1);
      gate.wait();
    }));
  }
  while (blocked.load() < 2) std::this_thread::yield();
  std::atomic<bool> foreign_ran{false};
  std::future<void> foreign = pool.submit([&foreign_ran] { foreign_ran = true; });
  std::vector<int> hits(64, 0);
  parallel_for(&pool, hits.size(), 4, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_FALSE(foreign_ran.load());
  for (const int h : hits) EXPECT_EQ(h, 1);
  release.set_value();
  for (auto& b : blockers) b.get();
  foreign.get();
  EXPECT_TRUE(foreign_ran.load());
}

TEST(ParallelFor, StressConcurrentAndNestedLoops) {
  // Two outside threads and the pool's own workers run loops on one pool
  // at once, some nested inside another loop's chunk: every index of
  // every loop is written exactly once, and read only after the loop
  // returned.
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  const auto loop = [&pool, &bad](std::size_t n, std::size_t grain) {
    std::vector<int> hits(n, 0);
    parallel_for(&pool, n, grain, [&hits](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (const int h : hits) {
      if (h != 1) bad.fetch_add(1);
    }
  };
  const auto outside = [&loop] {
    for (std::size_t r = 0; r < 200; ++r) loop(64 + r % 7, 1 + r % 5);
  };
  std::thread a(outside);
  std::thread b(outside);
  for (int r = 0; r < 50; ++r) {
    parallel_for(&pool, 8, 1,
                 [&loop](std::size_t, std::size_t) { loop(32, 2); });
  }
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ComputePool, ConfigurableWidth) {
  EXPECT_EQ(compute_threads(), 1u);
  EXPECT_EQ(compute_pool(), nullptr);
  set_compute_threads(3);
  ASSERT_NE(compute_pool(), nullptr);
  EXPECT_EQ(compute_threads(), 3u);
  set_compute_threads(1);
  EXPECT_EQ(compute_pool(), nullptr);
  EXPECT_EQ(compute_threads(), 1u);
}

TEST(ComputePool, ParallelSpmmBitIdenticalToSequential) {
  // Random CSR x dense product, big enough to trip the parallel path.
  Rng rng(99);
  const std::size_t n = 600, cols = 24;
  std::vector<Triplet> t;
  for (std::size_t r = 0; r < n; ++r) {
    for (int e = 0; e < 8; ++e) {
      t.push_back({r, rng.index(n), rng.uniform(-1.0, 1.0)});
    }
  }
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));
  Matrix x(n, cols);
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);

  set_compute_threads(1);
  const Matrix seq = a.multiply(x);
  set_compute_threads(4);
  const Matrix par = a.multiply(x);
  set_compute_threads(1);

  ASSERT_EQ(seq.rows(), par.rows());
  ASSERT_EQ(seq.cols(), par.cols());
  EXPECT_TRUE(seq.data() == par.data());  // bitwise, not approximate
}

}  // namespace
}  // namespace gana
