#ifndef KBT_EXEC_POOL_H_
#define KBT_EXEC_POOL_H_

/// \file
/// A caller-participating parallel-for for world-parallel τ execution.
///
/// Design: a pool of width w is the calling thread plus w − 1 helper threads.
/// ParallelFor splits an index range into chunks, whose count depends only on
/// the range and the width, and gives each worker a fixed contiguous share of
/// them; the calling thread's share comes first and is never empty, and only
/// helpers with a share are woken. A helper claims chunks from its own share
/// alone. The calling thread claims its own share, then any chunk of a
/// helper's share that no one has started, so a late helper never delays a
/// pass, and no helper ever runs more than its share. The caller then waits
/// only for the chunks helpers have already claimed. A pass of one chunk runs
/// inline on the caller and wakes no thread.
///
/// The trade-off: the caller's own share is never rebalanced. A slow chunk
/// early in it, or a caller descheduled inside it, leaves the rest of that
/// share to the caller while helpers that have finished sit idle, and a
/// slow helper share is rebalanced by the caller alone. That is the price
/// of the cap: each helper's glibc arena keeps the most its thread ever
/// held, and a helper free to claim any chunk sometimes held a whole τ call
/// (docs/exec.md, "Why helpers own their shares", measures both).
///
/// Bodies receive the id of the worker that runs them — 0 for the calling
/// thread, 1 .. w − 1 for helpers — so callers can keep per-worker resource
/// pools (one Solver + scratch per worker) in arrays of size workers().
///
/// The pool makes no fairness or ordering promises; τ's determinism comes from
/// writing results into per-index slots, not from execution order.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include "base/status.h"

namespace kbt::exec {

class ThreadPool {
 public:
  /// A pool of width `workers` (at least one): the calling thread of each
  /// ParallelFor plus `workers` − 1 helper threads, started here.
  explicit ThreadPool(size_t workers);

  /// Stops and joins the helpers. No ParallelFor may be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t workers() const { return width_; }

  /// Runs body(index, worker) for every index in [0, n), blocking until all
  /// have completed; the calling thread runs chunks as worker 0. The range
  /// splits into c = min(n, 4 * workers()) chunks, chunk j covering
  /// [n * j / c, n * (j + 1) / c), and the first p = min(workers(), c)
  /// workers own shares of them: worker k's is chunks [c * k / p,
  /// c * (k + 1) / p). Helper k runs only chunks of its own share; the
  /// caller runs its own and any unstarted chunk of a helper's. Calls from
  /// several threads are served one at a time. `body` must not call back
  /// into ParallelFor on the same pool.
  ///
  /// Degrades gracefully when a body call throws: the exception is contained
  /// to its chunk (the chunk's remaining indices are skipped, other chunks
  /// still run), the pool stays usable, and the first exception is reported
  /// as a kInternal Status. Callers that capture failures per index slot see
  /// OK here and read the slots.
  Status ParallelFor(size_t n,
                     const std::function<void(size_t index, size_t worker)>& body);

 private:
  struct Job;
  /// One worker's share of the open job's chunks: `next` is its first
  /// unclaimed chunk, `end` one past its last. On a cache line of its own,
  /// since the owner and the caller both claim from it.
  struct alignas(64) Share {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };
  /// A helper thread and the condition variable it alone waits on, so a
  /// job wakes exactly the helpers that own a share of it.
  struct Helper {
    std::condition_variable wake;
    std::thread thread;
  };

  void HelperLoop(size_t worker);
  /// Claims and runs chunks of `share` as `worker` until none is left.
  void Drain(Job& job, Share& share, size_t worker);

  size_t width_ = 1;
  /// Helper k − 1 is worker k.
  std::unique_ptr<Helper[]> helpers_;
  /// Worker k's share of the open job, reset by each job under call_mu_.
  std::unique_ptr<Share[]> shares_;
  /// Held for a whole ParallelFor: one job at a time.
  std::mutex call_mu_;

  std::mutex mu_;
  std::condition_variable idle_cv_;  ///< The caller waits for busy_ == 0.
  Job* job_ = nullptr;               ///< The open job, if any. Guarded by mu_.
  uint64_t epoch_ = 0;               ///< Jobs opened so far. Guarded by mu_.
  size_t busy_ = 0;  ///< Helpers inside the current job. Guarded by mu_.
  bool stop_ = false;                ///< Guarded by mu_.
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_POOL_H_
