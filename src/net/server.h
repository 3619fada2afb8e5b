#ifndef KBT_NET_SERVER_H_
#define KBT_NET_SERVER_H_

/// \file
/// The socket front of serve::Server: accept loop, per-connection workers,
/// overload control, graceful drain.
///
/// Threading model — deliberately boring: one blocking accept thread, one
/// worker thread per connection, blocking frame IO with per-direction socket
/// timeouts. Robustness comes from four mechanisms, not from async IO:
///
///   * Framing: every malformed frame (bad magic/CRC/length/type) gets one
///     best-effort error reply, then the connection closes. The decoder is
///     total, so garbage can cost at most one connection, never the process.
///   * Overload control: beyond `max_connections` the accept loop *rejects
///     early* — one kUnavailable frame with a retry-after hint, then close —
///     instead of queueing forever; `max_in_flight` bounds the requests
///     executing concurrently the same way.
///   * Deadlines: each read request's deadline_ms becomes a CancelToken
///     parented on the server-wide drain token and rides serve → τ → μ → SAT.
///   * Drain: Shutdown() stops accepting, lets in-flight requests finish for
///     up to 2 s, then cancels the drain token (in-flight requests
///     unwind with kDeadlineExceeded at their next check), joins every
///     worker, and fails when the durable store is broken. An acknowledged
///     commit was fsynced before its reply frame left, so the drain has
///     nothing to flush and SIGTERM → Shutdown() never loses acknowledged
///     work (crash-matrix tested).
///
/// A worker that finishes (peer hung up, fatal frame error) deregisters
/// itself: it drops the connection's transport — closing the socket right
/// then, not at shutdown — and parks its thread handle on a finished list
/// the accept loop joins before each accept. A long-running server therefore
/// holds an fd and a thread stack only per *open* connection, never per
/// connection ever served.
///
/// ServeConnection is public: tests drive the exact production frame loop
/// over in-memory PipeTransport/FaultTransport pairs, deterministically.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"
#include "base/status.h"
#include "net/repl_handler.h"
#include "net/transport.h"
#include "serve/server.h"

namespace kbt::net {

struct NetServerOptions {
  /// Bind address; port 0 picks a free port (see NetServer::port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Connections served concurrently; beyond it new connections are rejected
  /// early with kUnavailable + retry-after. 0 = unlimited.
  size_t max_connections = 64;
  /// Requests executing concurrently across all connections; beyond it a
  /// request is rejected with kUnavailable + retry-after (the connection
  /// stays open). 0 = unlimited.
  size_t max_in_flight = 32;
  /// Per-connection socket read timeout (0 = none; writes time out after
  /// 10 s). An idle client costs a blocked thread, so production configs
  /// should set it.
  uint64_t read_timeout_ms = 0;
  /// Retry-after hint sent with kUnavailable rejects.
  uint32_t retry_after_ms = 50;
  /// Replication primary hook (borrowed; must outlive the server). When set,
  /// the three repl request frames are delegated to it; when nullptr they are
  /// refused with kUnsupported. Repl frames bypass the in-flight cap — a
  /// parked long-poll fetch must not starve client requests (they still
  /// consume a connection slot).
  ReplHandler* repl = nullptr;
};

class NetServer {
 public:
  /// Serves `server` (borrowed; must outlive this). Does not listen yet.
  NetServer(serve::Server* server, NetServerOptions options);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and starts the accept thread.
  Status Start();

  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Graceful drain; see the file comment. Idempotent, thread- and
  /// signal-context-safe to *request* via RequestShutdown; the blocking work
  /// happens here.
  Status Shutdown();

  /// Async-signal-safe shutdown request (e.g. from a SIGTERM handler via
  /// self-pipe): flags the server; the accept thread then initiates drain.
  /// The caller of WaitForShutdown (or Shutdown) completes it.
  void RequestShutdown() { shutdown_requested_.store(true); }

  /// Blocks until RequestShutdown (or Shutdown from another thread), then
  /// performs the drain and returns its status.
  Status WaitForShutdown();

  /// Serves one connection's frame loop on the calling thread until the peer
  /// closes, a fatal frame error closes it, or drain completes. Public so
  /// tests can run the production loop over an in-memory transport.
  void ServeConnection(Transport& transport);

  struct NetStats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  ///< Over max_connections.
    uint64_t connections_reaped = 0;    ///< Worker threads joined so far.
    uint64_t open_connections = 0;      ///< Currently being served.
    uint64_t requests_ok = 0;
    uint64_t requests_rejected = 0;  ///< Over max_in_flight.
    uint64_t requests_failed = 0;    ///< Error replies (parse, deadline, ...).
    uint64_t malformed_frames = 0;   ///< Connections closed on bad frames.
  };
  NetStats net_stats() const;

  /// The server-wide drain token (parent of every request token).
  const CancelToken& drain_token() const { return drain_token_; }

 private:
  void AcceptLoop();
  /// Worker exit path: drops the connection's transport (closing the socket
  /// now) and moves its own thread handle to finished_threads_ for joining.
  void FinishConnection(uint64_t id, std::shared_ptr<Transport> transport);
  /// Joins every thread parked on finished_threads_. Called by the accept
  /// loop before each accept; Shutdown sweeps whatever remains.
  void ReapFinishedWorkers();
  /// One request–reply exchange. Returns false when the connection must
  /// close (clean EOF, malformed frame, IO error). `last_seq` is the
  /// connection's previous request seq, used to drop duplicated frames.
  bool ServeOneFrame(Transport& transport, serve::Session& session,
                     uint16_t* last_seq);
  /// Best-effort typed error reply (ignores write failures — the close that
  /// follows is the real signal). `seq` echoes the offending request; 0 for
  /// errors outside an exchange (accept-time rejects).
  void SendError(Transport& transport, const Status& status,
                 uint32_t retry_after_ms = 0, uint16_t seq = 0);

  serve::Server* server_;
  NetServerOptions options_;

  /// Atomic: the accept thread reads it while Shutdown claims-and-closes it
  /// (exchange to -1), after which accept fails with EBADF and the loop ends.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  CancelToken drain_token_;

  /// Drain result shared with every Shutdown/WaitForShutdown caller: the
  /// winner stores it here, losers wait on the condvar and report the same
  /// Status (a broken store must not be visible to only one of two
  /// concurrent callers).
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_done_ = false;   // Guarded by shutdown_mu_.
  Status shutdown_status_;       // Guarded by shutdown_mu_.

  std::mutex conn_mu_;
  /// Live connections by id. Transports are shared with their worker thread
  /// so Shutdown() can unblock parked readers without racing a worker's
  /// exit; a worker erases its own entries via FinishConnection.
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::unordered_map<uint64_t, std::shared_ptr<Transport>> live_transports_;
  /// Handles of exited workers awaiting join (self-parked; a thread cannot
  /// join itself).
  std::vector<std::thread> finished_threads_;
  uint64_t next_conn_id_ = 0;  // Guarded by conn_mu_.
  std::atomic<size_t> open_connections_{0};
  std::atomic<size_t> in_flight_{0};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> connections_reaped_{0};
  std::atomic<uint64_t> requests_ok_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> malformed_frames_{0};
};

}  // namespace kbt::net

#endif  // KBT_NET_SERVER_H_
