/// \file
/// Tests for the exec/ caller-participating pool: the caller is worker 0, a
/// pass of one chunk and a pool of width 1 run on the caller alone,
/// ParallelFor covers every index once (under skew and from concurrent
/// callers), a helper runs only indices of its own share while the caller
/// takes what a stalled helper has not begun, no helper takes the caller's
/// share, and worker ids stay in range (the contract the per-worker solver
/// pools in τ rely on).

#include "exec/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>
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

/// The indices [begin, end) of worker `k`'s share of an n-index pass at
/// `width`, as ParallelFor documents them: min(n, 4 * width) chunks, split
/// among the first min(width, chunks) workers. Empty for a worker with no
/// share.
std::pair<size_t, size_t> ShareOf(size_t n, size_t width, size_t k) {
  const size_t chunks = std::min(n, 4 * width);
  const size_t shares = std::min(width, chunks);
  if (k >= shares) return {0, 0};
  return {n * (chunks * k / shares) / chunks,
          n * (chunks * (k + 1) / shares) / chunks};
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
  // Skewed durations: each share's first index is slow, so every worker is
  // held at the start of its share, and the caller, once past its own, takes
  // the chunks of the helpers' shares they have not begun. Only coverage is
  // asserted; which worker runs what is scheduling.
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

TEST(ThreadPoolTest, HelpersRunOnlyTheirOwnShare) {
  // A helper claims chunks from its own share alone, whatever the timing:
  // no helper ever runs more than its share of a pass. Each index takes a
  // few microseconds, so helpers wake while chunks are still unclaimed.
  ThreadPool pool(4);
  for (size_t n : {2, 5, 16, 64, 1000}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::atomic<int>> counts(n);
      std::vector<size_t> worker_of(n);
      Status s = pool.ParallelFor(n, [&](size_t i, size_t worker) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(5);
        while (std::chrono::steady_clock::now() < until) {
        }
        counts[i].fetch_add(1, std::memory_order_relaxed);
        worker_of[i] = worker;
      });
      ASSERT_TRUE(s.ok()) << s;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1) << "n " << n << ", index " << i;
        const size_t worker = worker_of[i];
        ASSERT_LT(worker, pool.workers());
        if (worker == 0) continue;
        const auto [begin, end] = ShareOf(n, pool.workers(), worker);
        ASSERT_TRUE(begin <= i && i < end)
            << "n " << n << ": helper " << worker << " ran index " << i
            << " outside its share [" << begin << ", " << end << ")";
      }
    }
  }
}

TEST(ThreadPoolTest, CallerTakesAStalledHelpersShare) {
  // 64 indices at width 4: 16 chunks of four, four chunks to a share, so
  // helper 1 owns [16, 32). The caller's first index waits until helper 1
  // has begun its first chunk, and that body then waits until every index
  // outside its chunk has run. The pass ends only if the caller runs the
  // rest of helper 1's share; helpers 2 and 3 may not.
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  constexpr size_t kChunk = 4;
  const auto [begin, end] = ShareOf(kN, pool.workers(), 1);
  ASSERT_EQ(begin, 16u);
  ASSERT_EQ(end, 32u);
  for (int round = 0; round < 10; ++round) {
    std::vector<size_t> worker_of(kN, pool.workers());
    std::atomic<size_t> done{0};
    std::atomic<size_t> stalled{kN};  // Helper 1's first index.
    std::atomic<bool> timed_out{false};
    auto wait_for = [&](const auto& ready) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!ready()) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out = true;
          return;
        }
        std::this_thread::yield();
      }
    };
    Status s = pool.ParallelFor(kN, [&](size_t i, size_t worker) {
      worker_of[i] = worker;
      if (worker == 0 && i == 0) {
        wait_for([&] { return stalled.load() != kN; });
      }
      size_t none = kN;
      if (worker == 1 && stalled.compare_exchange_strong(none, i)) {
        wait_for([&] { return done.load() >= kN - kChunk; });
      }
      ++done;
    });
    ASSERT_TRUE(s.ok()) << s;
    ASSERT_FALSE(timed_out.load()) << "round " << round;
    // Helper 1 began its share and was held in its first chunk.
    ASSERT_EQ(stalled.load(), begin) << "round " << round;
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(worker_of[i], i < begin + kChunk ? 1u : 0u)
          << "round " << round << ", index " << i;
    }
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_LT(worker_of[i], pool.workers()) << "index " << i;
      if (i < begin || i >= end) {
        EXPECT_NE(worker_of[i], 1u) << "round " << round << ", index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, CallersShareIsNeverRebalanced) {
  // The trade-off of owned shares: helpers never take the caller's chunks.
  // 64 indices at width 4 give the caller [0, 16) in four chunks. Its first
  // index waits until every index of the helpers' shares has run, so the
  // helpers are idle while the rest of the caller's share is unclaimed, and
  // still the caller runs all of it.
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  const auto [begin, end] = ShareOf(kN, pool.workers(), 0);
  ASSERT_EQ(begin, 0u);
  ASSERT_EQ(end, 16u);
  for (int round = 0; round < 10; ++round) {
    std::vector<size_t> worker_of(kN, pool.workers());
    std::atomic<size_t> helper_done{0};
    std::atomic<bool> timed_out{false};
    Status s = pool.ParallelFor(kN, [&](size_t i, size_t worker) {
      worker_of[i] = worker;
      if (i == 0) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (helper_done.load() < kN - end) {
          if (std::chrono::steady_clock::now() > deadline) {
            timed_out = true;
            break;
          }
          std::this_thread::yield();
        }
      }
      if (i >= end) ++helper_done;
    });
    ASSERT_TRUE(s.ok()) << s;
    ASSERT_FALSE(timed_out.load()) << "round " << round;
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(worker_of[i], 0u) << "round " << round << ", index " << i;
    }
    for (size_t i = end; i < kN; ++i) {
      EXPECT_NE(worker_of[i], 0u) << "round " << round << ", index " << i;
    }
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
