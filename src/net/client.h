#ifndef KBT_NET_CLIENT_H_
#define KBT_NET_CLIENT_H_

/// \file
/// The kbt wire-protocol client: typed calls, deadlines, retry with
/// exponential backoff, and strict retry-safety rules.
///
/// Retry policy — the part that keeps a flaky network from producing wrong
/// answers:
///
///   * Reads and stats are idempotent: retried on kUnavailable (reject-early
///     or connect failure), kIOError and kDataLoss (connection died or
///     corrupted — the request provably produced no observable effect), with
///     exponential backoff honoring the server's retry-after hint.
///   * Apply is NOT idempotent. It is retried only when the server provably
///     did not execute it: a typed kUnavailable reply (rejected before
///     execution) or a failure before the request bytes were sent. A
///     connection that dies *after* the request leaves returns kUnavailable
///     to the caller with `maybe_executed() == true` — the commit may or may
///     not have landed; re-running it is the caller's decision, typically
///     after checking the snapshot version.
///   * kDeadlineExceeded is never retried (the budget is spent) and neither
///     are semantic errors (parse, invalid argument, ...).
///
/// The transport is pluggable: production dials TCP, tests hand in a factory
/// producing PipeTransport/FaultTransport endpoints.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "net/frame.h"
#include "net/transport.h"

namespace kbt::net {

struct ClientOptions {
  /// Attempts per call (first try + retries).
  size_t max_attempts = 4;
  /// Backoff before retry k (doubles each retry; the server's retry-after
  /// hint overrides when larger).
  uint64_t initial_backoff_ms = 10;
  uint64_t max_backoff_ms = 1'000;
  /// Socket timeouts for dialed connections (0 = none).
  uint64_t connect_timeout_ms = 2'000;
  uint64_t read_timeout_ms = 30'000;
  uint64_t write_timeout_ms = 10'000;
  /// Test hook: sleeps replaced by a no-op when false (backoff becomes
  /// immediate; deterministic fault-matrix runs don't wait out real time).
  bool sleep_on_backoff = true;
};

struct ClientReadResult {
  bool holds = false;
  uint64_t snapshot_version = 0;
};

class Client {
 public:
  /// Client over a transport factory: called to (re)connect; each entry is
  /// one fresh connection. Tests inject pipe/fault transports here.
  using TransportFactory =
      std::function<StatusOr<std::unique_ptr<Transport>>()>;

  Client(TransportFactory factory, ClientOptions options = ClientOptions());

  /// TCP client for host:port.
  static Client Dial(std::string host, uint16_t port,
                     ClientOptions options = ClientOptions());

  /// One hypothetical read. `deadline_ms` (0 = none) rides the wire and
  /// bounds server-side evaluation.
  StatusOr<ClientReadResult> Read(const std::vector<std::string>& antecedents,
                                  const std::string& consequent,
                                  bool necessarily = true,
                                  uint64_t deadline_ms = 0);

  /// One transformation commit; see the retry rules in the file comment.
  StatusOr<uint64_t> Apply(const std::string& expression);

  /// Server counters.
  StatusOr<WireStatsReply> Stats();

  /// Liveness probe.
  Status Ping();

  /// True when the last Apply failed in a state where the server may have
  /// executed it anyway (connection died after the request bytes left).
  bool maybe_executed() const { return maybe_executed_; }

  /// Attempts spent by the last call (1 = no retries, 0 = refused before
  /// sending).
  size_t last_attempts() const { return last_attempts_; }

  /// Drops the cached connection (next call redials).
  void Disconnect();

 private:
  /// Which failed attempts a call may retry (the rules in the file comment).
  enum class Retry {
    kAny,             ///< Idempotent (read, stats): any transport error.
    kIfNotExecuted,   ///< Apply: only when the server provably did not run it.
    kNever,           ///< Ping: exactly one exchange.
  };

  /// The attempt loop behind every call: exchanges `payload` as `type` until
  /// a reply of type `expected_reply` arrives or `retry` forbids another try,
  /// backing off in between. Returns the reply payload. Sets last_attempts_
  /// and, for kIfNotExecuted, maybe_executed_.
  StatusOr<std::string> Call(FrameType type, const std::string& payload,
                             FrameType expected_reply, Retry retry);

  /// Sends `payload` as `type`, reads one reply frame, maps error frames to
  /// their typed Status. `sent` reports whether the request bytes left;
  /// `typed_reply` whether the error Status came from a server error frame
  /// (authoritative "not executed" when its code is kUnavailable).
  Status Exchange(uint8_t type, const std::string& payload,
                  uint8_t expected_reply, std::string* reply_payload,
                  bool* sent, bool* typed_reply, uint32_t* retry_after_ms);
  Status EnsureConnected();
  void Backoff(size_t attempt, uint32_t server_hint_ms);

  TransportFactory factory_;
  ClientOptions options_;
  std::unique_ptr<Transport> transport_;
  /// Request sequence number (wraps, skips 0 — 0 marks out-of-exchange
  /// frames). A success reply with a stale seq is discarded as kDataLoss, so
  /// a duplicated frame can cost a retry but never a wrong answer.
  uint16_t next_seq_ = 1;
  bool maybe_executed_ = false;
  size_t last_attempts_ = 0;
};

}  // namespace kbt::net

#endif  // KBT_NET_CLIENT_H_
