#include "exec/pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

namespace kbt::exec {

/// One ParallelFor call, on its caller's stack. Chunk c covers indices
/// [n * c / chunks, n * (c + 1) / chunks); `next` hands chunks out.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t chunks = 0;
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  bool threw = false;  // Guarded by error_mu.
  std::string error;   // The first exception's message. Guarded by error_mu.

  void Fail(const char* what) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (threw) return;
    threw = true;
    error = what;
  }
};

ThreadPool::ThreadPool(size_t workers) {
  const size_t width = std::max<size_t>(1, workers);
  helpers_.reserve(width - 1);
  for (size_t w = 1; w < width; ++w) {
    helpers_.emplace_back([this, w] { HelperLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void ThreadPool::Drain(Job& job, size_t worker) {
  // The job's fields were published under mu_, and the caller reads what the
  // bodies wrote only after busy_'s hand-off under mu_, so the index itself
  // needs no ordering.
  for (size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
       c < job.chunks; c = job.next.fetch_add(1, std::memory_order_relaxed)) {
    const size_t end = job.n * (c + 1) / job.chunks;
    try {
      for (size_t i = job.n * c / job.chunks; i < end; ++i) {
        (*job.body)(i, worker);
      }
    } catch (const std::exception& e) {
      job.Fail(e.what());
    } catch (...) {
      job.Fail("non-standard exception");
    }
  }
}

void ThreadPool::HelperLoop(size_t worker) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // A helper joins each open job at most once; one that wakes after the
    // caller closed its job goes back to sleep.
    wake_cv_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && epoch_ != seen);
    });
    if (stop_) return;
    seen = epoch_;
    Job* job = job_;
    ++busy_;
    lock.unlock();
    Drain(*job, worker);
    lock.lock();
    if (--busy_ == 0) idle_cv_.notify_one();
  }
}

Status ThreadPool::ParallelFor(
    size_t n, const std::function<void(size_t index, size_t worker)>& body) {
  if (n == 0) return Status::OK();
  std::lock_guard<std::mutex> call(call_mu_);
  Job job;
  job.body = &body;
  job.n = n;
  // Four chunks per worker, so a worker that finishes early takes the tail of
  // a slow sibling's share; never more chunks than indices.
  job.chunks = std::min(n, 4 * workers());
  const size_t wake = std::min(helpers_.size(), job.chunks - 1);
  if (wake > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++epoch_;
    }
    for (size_t k = 0; k < wake; ++k) wake_cv_.notify_one();
  }
  Drain(job, 0);
  if (wake > 0) {
    // Every chunk is claimed; close the job to late helpers and wait for
    // the ones inside it to finish theirs.
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    idle_cv_.wait(lock, [this] { return busy_ == 0; });
  }
  if (job.threw) {
    return Status::Internal("parallel-for body threw: " + job.error);
  }
  return Status::OK();
}

}  // namespace kbt::exec
