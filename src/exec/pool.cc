#include "exec/pool.h"

#include <algorithm>
#include <exception>
#include <string>

namespace kbt::exec {

/// One ParallelFor call, on its caller's stack. Chunk c covers indices
/// [n * c / chunks, n * (c + 1) / chunks); workers 0 .. shares − 1 own the
/// pool's first `shares` Share slots for the call.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t chunks = 0;
  size_t shares = 0;
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

ThreadPool::ThreadPool(size_t workers)
    : width_(std::max<size_t>(1, workers)),
      helpers_(std::make_unique<Helper[]>(width_ - 1)),
      shares_(std::make_unique<Share[]>(width_)) {
  for (size_t w = 1; w < width_; ++w) {
    helpers_[w - 1].thread = std::thread([this, w] { HelperLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  for (size_t k = 0; k + 1 < width_; ++k) helpers_[k].wake.notify_one();
  for (size_t k = 0; k + 1 < width_; ++k) helpers_[k].thread.join();
}

void ThreadPool::Drain(Job& job, Share& share, size_t worker) {
  // The job and its shares were published under mu_, and the caller reads
  // what the bodies wrote only after busy_'s hand-off under mu_, so a claim
  // needs no ordering beyond its own atomicity.
  for (size_t c = share.next.fetch_add(1, std::memory_order_relaxed);
       c < share.end; c = share.next.fetch_add(1, std::memory_order_relaxed)) {
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
  Helper& self = helpers_[worker - 1];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // A helper joins each open job that gives it a share, at most once; one
    // that wakes after the caller closed its job goes back to sleep.
    self.wake.wait(lock, [&] {
      return stop_ ||
             (job_ != nullptr && epoch_ != seen && worker < job_->shares);
    });
    if (stop_) return;
    seen = epoch_;
    Job* job = job_;
    ++busy_;
    lock.unlock();
    Drain(*job, shares_[worker], worker);
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
  // Four chunks per worker, so the caller can take the unstarted tail of a
  // helper's share when that helper is late; never more chunks than indices.
  job.chunks = std::min(n, 4 * width_);
  job.shares = std::min(width_, job.chunks);
  for (size_t k = 0; k < job.shares; ++k) {
    shares_[k].next.store(job.chunks * k / job.shares,
                          std::memory_order_relaxed);
    shares_[k].end = job.chunks * (k + 1) / job.shares;
  }
  if (job.shares > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++epoch_;
    }
    for (size_t k = 1; k < job.shares; ++k) helpers_[k - 1].wake.notify_one();
  }
  // The caller's own share first, then whatever the helpers have not begun;
  // no helper takes from the caller's share.
  for (size_t k = 0; k < job.shares; ++k) Drain(job, shares_[k], 0);
  if (job.shares > 1) {
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
