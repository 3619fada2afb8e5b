/// \file
/// Tests for the exec/ caller-participating pool: the caller is worker 0, a
/// pass of one chunk and a pool of width 1 run on the caller alone,
/// ParallelFor covers every index once (under skew and from concurrent
/// callers), and worker ids stay in range (the contract the per-worker solver
/// pools in τ rely on).

#include "exec/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

namespace kbt::exec {
namespace {

/// The process's threads, or -1 where /proc/self/task is not available.
int ProcessThreads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return -1;
  int threads = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++threads;
  return threads;
}

TEST(ThreadPoolTest, StartStopEmpty) {
  // Pools with no work must start and join cleanly, repeatedly.
  for (int i = 0; i < 10; ++i) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
  }
}

TEST(ThreadPoolTest, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
  std::atomic<int> ran{0};
  pool.ParallelFor(5, [&](size_t, size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++ran;
  });
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i, size_t worker) {
    ASSERT_LT(worker, pool.workers());
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int ran = 0;
  pool.ParallelFor(0, [&](size_t, size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  pool.ParallelFor(1, [&](size_t i, size_t) {
    EXPECT_EQ(i, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ParallelForReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(64, [&](size_t i, size_t) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

TEST(ThreadPoolTest, StealStressSkewedDurations) {
  // Skewed durations: a worker held by a slow index leaves the chunks after
  // its own to whichever workers are free, which claim them from the shared
  // index. Only coverage is asserted; which worker runs what is scheduling.
  ThreadPool pool(4);
  constexpr size_t kN = 256;
  std::vector<std::atomic<int>> counts(kN);
  std::atomic<uint64_t> slow_done{0};
  pool.ParallelFor(kN, [&](size_t i, size_t) {
    if (i % 64 == 0) {
      // One slow item per chunk-group pins a worker.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++slow_done;
    }
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(slow_done.load(), 4u);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForSurfacesBodyExceptionAsStatus) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(64);
  Status s = pool.ParallelFor(64, [&](size_t i, size_t) {
    if (i == 20) throw std::runtime_error("world 20 exploded");
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("world 20 exploded"), std::string::npos);
  // Only the throwing chunk's tail is lost; every other chunk ran whole, and
  // index 20 itself never completed.
  EXPECT_EQ(counts[20].load(), 0);
  int completed = 0;
  for (auto& c : counts) completed += c.load();
  // 12 chunks of ~6 indices each; only the throwing chunk can lose indices.
  EXPECT_GE(completed, 48);

  // The pool itself stays usable after the failure.
  std::atomic<int> ran{0};
  Status again = pool.ParallelFor(32, [&](size_t, size_t) { ++ran; });
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, CallerIsWorkerZero) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    constexpr size_t kN = 512;
    std::vector<size_t> worker_of(kN);
    std::vector<std::thread::id> thread_of(kN);
    pool.ParallelFor(kN, [&](size_t i, size_t worker) {
      worker_of[i] = worker;
      thread_of[i] = std::this_thread::get_id();
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_LT(worker_of[i], pool.workers());
      // Worker 0 is the calling thread, and only it.
      ASSERT_EQ(worker_of[i] == 0, thread_of[i] == caller) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, OneChunkRunsInlineOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 100; ++round) {
    int ran = 0;  // Not atomic: only the caller may touch it.
    Status s = pool.ParallelFor(1, [&](size_t i, size_t worker) {
      EXPECT_EQ(i, 0u);
      EXPECT_EQ(worker, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++ran;
    });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(ran, 1);
  }
}

TEST(ThreadPoolTest, WidthOneStartsNoThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t width : {size_t{0}, size_t{1}}) {
    const int before = ProcessThreads();
    ThreadPool pool(width);
    EXPECT_EQ(pool.workers(), 1u);
    if (before >= 0) {
      EXPECT_LE(ProcessThreads(), before) << "width " << width;
    }
    size_t ran = 0;
    pool.ParallelFor(100, [&](size_t, size_t worker) {
      EXPECT_EQ(worker, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++ran;
    });
    EXPECT_EQ(ran, 100u);
  }
}

TEST(ThreadPoolTest, WidthFourRunsTheCallerAndThreeHelpersAtOnce) {
  // Each worker's first index waits until all four workers are inside the
  // pass, so the pass ends only if the caller and three distinct helper
  // threads run at the same time.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<bool>> arrived(pool.workers());
  std::vector<std::thread::id> thread_of(pool.workers());
  std::atomic<size_t> present{0};
  std::atomic<bool> timed_out{false};
  pool.ParallelFor(64, [&](size_t, size_t worker) {
    if (arrived[worker].exchange(true)) return;
    thread_of[worker] = std::this_thread::get_id();
    ++present;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (present.load() < pool.workers()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  ASSERT_FALSE(timed_out.load());
  EXPECT_EQ(thread_of[0], caller);
  for (size_t a = 0; a < thread_of.size(); ++a) {
    for (size_t b = a + 1; b < thread_of.size(); ++b) {
      EXPECT_NE(thread_of[a], thread_of[b]) << "workers " << a << ", " << b;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachSeeEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 300;
  constexpr int kRounds = 50;
  auto caller = [&](std::vector<int>* failures) {
    const std::thread::id self = std::this_thread::get_id();
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> counts(kN);
      std::atomic<int> bad_worker{0};
      Status s = pool.ParallelFor(kN, [&](size_t i, size_t worker) {
        if (worker >= pool.workers()) ++bad_worker;
        // Worker 0 of this job is this caller, never the other one.
        if ((worker == 0) != (std::this_thread::get_id() == self)) {
          ++bad_worker;
        }
        counts[i].fetch_add(1, std::memory_order_relaxed);
      });
      if (!s.ok()) failures->push_back(-1);
      if (bad_worker.load() != 0) failures->push_back(-2);
      for (size_t i = 0; i < kN; ++i) {
        if (counts[i].load() != 1) failures->push_back(static_cast<int>(i));
      }
    }
  };
  std::vector<int> failures_a;
  std::vector<int> failures_b;
  std::thread a(caller, &failures_a);
  std::thread b(caller, &failures_b);
  a.join();
  b.join();
  EXPECT_TRUE(failures_a.empty()) << failures_a.size() << " failures";
  EXPECT_TRUE(failures_b.empty()) << failures_b.size() << " failures";
}

}  // namespace
}  // namespace kbt::exec
