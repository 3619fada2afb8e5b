#ifndef KBT_EXEC_POOL_H_
#define KBT_EXEC_POOL_H_

/// \file
/// A caller-participating parallel-for for world-parallel τ execution.
///
/// Design: a pool of width w is the calling thread plus w − 1 helper threads.
/// ParallelFor splits an index range into chunks, whose count depends only on
/// the range and the width, and hands them out through one atomic index: the
/// caller claims chunks like any helper, so it never sleeps while work is
/// left, and then waits only for the chunks helpers have already claimed. A
/// pass of one chunk runs inline on the caller and wakes no thread.
///
/// Bodies receive the id of the worker that runs them — 0 for the calling
/// thread, 1 .. w − 1 for helpers — so callers can keep per-worker resource
/// pools (one Solver + scratch per worker) in arrays of size workers().
///
/// The pool makes no fairness or ordering promises; τ's determinism comes from
/// writing results into per-index slots, not from execution order.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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

  size_t workers() const { return helpers_.size() + 1; }

  /// Runs body(index, worker) for every index in [0, n), blocking until all
  /// have completed; the calling thread runs chunks as worker 0. Calls from
  /// several threads are served one at a time. `body` must not call back into
  /// ParallelFor on the same pool.
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

  void HelperLoop(size_t worker);
  /// Claims and runs `job`'s chunks as `worker` until none is left.
  void Drain(Job& job, size_t worker);

  std::vector<std::thread> helpers_;
  /// Held for a whole ParallelFor: one job at a time.
  std::mutex call_mu_;

  std::mutex mu_;
  std::condition_variable wake_cv_;  ///< Helpers wait here for a job.
  std::condition_variable idle_cv_;  ///< The caller waits for busy_ == 0.
  Job* job_ = nullptr;               ///< The open job, if any. Guarded by mu_.
  uint64_t epoch_ = 0;               ///< Jobs opened so far. Guarded by mu_.
  size_t busy_ = 0;  ///< Helpers inside the current job. Guarded by mu_.
  bool stop_ = false;                ///< Guarded by mu_.
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_POOL_H_
