#ifndef KBTBENCH_LOAD_H_
#define KBTBENCH_LOAD_H_

/// \file
/// The load generator: one process, four connections, four threads. The
/// calling thread drives connection 0 and three threads drive 1-3. Open-loop
/// phases give each connection its own Poisson schedule at a quarter of the
/// rate and time every request from the moment it was due, so a stall shows
/// up in the latency of the requests queued behind it. Clients make a single
/// attempt per call: a reject is a failure, never a hidden retry.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "inputs.h"
#include "net/client.h"

namespace kbtbench {

inline constexpr int kConnections = 4;

/// One acknowledged apply: which write-stream entry, and the version the
/// server committed it as.
struct Acked {
  int conn = 0;
  uint64_t version = 0;
  uint64_t write_seq = 0;
};

/// A read reply kept for the oracle.
struct Observed {
  uint32_t index = 0;
  uint64_t version = 0;
  bool holds = false;
};

/// One successful request: when it was due (seconds into the phase) and how
/// long it took from then.
struct Timed {
  double due_s = 0.0;
  double ms = 0.0;
};

struct PhaseResult {
  std::vector<Timed> reads;      ///< Successful reads.
  std::vector<Timed> applies;    ///< Successful applies.
  std::vector<double> lag_ms;    ///< How late the generator woke for a send.
  uint64_t scheduled = 0;        ///< Requests due inside the window.
  uint64_t attempted = 0;        ///< Requests sent.
  uint64_t failed = 0;           ///< Error replies and transport failures.
  uint64_t rejected = 0;         ///< kUnavailable among the failures.
  uint64_t unsent = 0;           ///< Due inside the window, never sent.
  double seconds = 0.0;

  std::vector<Timed> All() const;
  void Merge(const PhaseResult& other);
};

std::vector<double> Latencies(const std::vector<Timed>& samples);

/// The tail of a phase, robust to a stall of the machine the benchmark
/// shares: the samples in due order are cut into windows of `window`
/// requests, and the result is the median over windows of each window's
/// 99th percentile (the plain p99 when there is less than one window).
double WindowedP99(std::vector<Timed> samples, size_t window = 1000);

class LoadGen {
 public:
  /// Borrows `inputs` (must outlive this).
  LoadGen(const Inputs& inputs, uint16_t port);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Dials the four connections.
  kbt::Status Connect();
  void Disconnect();

  /// Each connection sends its first `per_conn` requests of a fixed warm-up
  /// stream back to back; with `apply_first`, connection 0 starts with one
  /// apply (a semi-sync primary acks it only once a replica is subscribed).
  PhaseResult Warmup(int per_conn, bool apply_first);

  /// Open loop at `rate` requests/s for `seconds`; `write_frac` of the
  /// requests are applies. `phase` salts the schedule seed.
  PhaseResult Open(double rate, double seconds, double write_frac,
                   uint64_t phase);

  /// Closed loop: every connection sends back to back for `seconds`.
  PhaseResult Closed(double seconds, double write_frac, uint64_t phase);

  /// Every apply acknowledged so far, in no particular order.
  std::vector<Acked> acked() const;
  /// Read replies sampled for the oracle (every 16th read per connection,
  /// up to 256 in total across phases).
  std::vector<Observed> observed() const;
  /// Per pool index: -1 never answered, else the answer. Only meaningful
  /// when no apply ran; `answers_agree` is false if two replies to one
  /// request differed.
  std::vector<int> answers() const;
  bool answers_agree() const { return !answer_conflict_.load(); }

 private:
  struct Conn;
  enum class Mode { kWarmup, kOpen, kClosed };
  struct Phase {
    Mode mode = Mode::kWarmup;
    double rate = 0.0;
    double seconds = 0.0;
    double write_frac = 0.0;
    uint64_t salt = 0;
    int warmup = 0;
    bool apply_first = false;
    std::chrono::steady_clock::time_point start;
  };
  void RunConn(int c, const Phase& phase, PhaseResult* out);
  PhaseResult RunAll(Phase phase);
  /// Sends one request; false on failure. `latency_from` anchors the timing.
  bool Send(Conn& conn, bool apply, uint32_t index, PhaseResult* out,
            std::chrono::steady_clock::time_point latency_from, double due_s);

  const Inputs& inputs_;
  uint16_t port_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_write_{0};
  std::unique_ptr<std::atomic<int>[]> answers_;
  std::atomic<bool> answer_conflict_{false};
};

}  // namespace kbtbench

#endif  // KBTBENCH_LOAD_H_
