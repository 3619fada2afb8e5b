#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/frame.h"

namespace kbt::net {

namespace {

/// RAII in-flight slot: try-acquire against the cap, release on scope exit.
class InFlightSlot {
 public:
  InFlightSlot(std::atomic<size_t>* counter, size_t cap) : counter_(counter) {
    size_t current = counter_->load(std::memory_order_relaxed);
    while (cap == 0 || current < cap) {
      if (counter_->compare_exchange_weak(current, current + 1,
                                          std::memory_order_acq_rel)) {
        acquired_ = true;
        return;
      }
    }
  }
  ~InFlightSlot() {
    if (acquired_) counter_->fetch_sub(1, std::memory_order_acq_rel);
  }
  bool acquired() const { return acquired_; }

 private:
  std::atomic<size_t>* counter_;
  bool acquired_ = false;
};

}  // namespace

NetServer::NetServer(serve::Server* server, NetServerOptions options)
    : server_(server), options_(std::move(options)) {}

NetServer::~NetServer() {
  // Best-effort drain if the owner forgot; Shutdown is idempotent.
  Shutdown();
}

Status NetServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOErrorFromErrno("socket", errno);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status s = Status::IOErrorFromErrno("bind", errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.accept_backlog) != 0) {
    Status s = Status::IOErrorFromErrno("listen", errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void NetServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    ReapFinishedWorkers();
    if (shutdown_requested_.load(std::memory_order_acquire)) break;
    struct sockaddr_in peer;
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept(listen_fd_.load(std::memory_order_acquire),
                      reinterpret_cast<struct sockaddr*>(&peer), &peer_len);
    if (fd < 0) {
      int err = errno;
      if (stopping_.load(std::memory_order_acquire)) break;
      // Per-connection failures (peer reset while queued in the backlog)
      // must not kill the listener for everyone else.
      if (err == EINTR || err == ECONNABORTED || err == EPROTO ||
          err == EAGAIN || err == EWOULDBLOCK) {
        continue;
      }
      // Descriptor/buffer exhaustion is transient: back off so in-flight
      // closes and the reap above can release resources, then retry.
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      // Terminal: the listener is gone (EBADF/EINVAL after Shutdown closed
      // it) or irrecoverably broken.
      break;
    }
    auto transport = std::make_shared<SocketTransport>(
        fd, options_.read_timeout_ms, options_.write_timeout_ms);
    // Reject-early beyond the connection cap: one typed frame, then close.
    // The client backs off and retries instead of parking in a queue that
    // only grows.
    size_t open = open_connections_.load(std::memory_order_acquire);
    if (options_.max_connections > 0 && open >= options_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      SendError(*transport,
                Status::Unavailable("server at connection capacity"),
                options_.retry_after_ms);
      continue;  // The last shared_ptr closes the socket.
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    // conn_mu_ is held across thread creation AND map insertion, so the
    // worker's exit-time FinishConnection (which takes conn_mu_) always
    // finds its entries registered, however fast the connection ends.
    std::lock_guard<std::mutex> lock(conn_mu_);
    uint64_t id = next_conn_id_++;
    live_transports_.emplace(id, transport);
    conn_threads_.emplace(
        id, std::thread([this, id, t = std::move(transport)]() mutable {
          ServeConnection(*t);
          FinishConnection(id, std::move(t));
        }));
  }
}

void NetServer::FinishConnection(uint64_t id,
                                 std::shared_ptr<Transport> transport) {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    live_transports_.erase(id);
    auto it = conn_threads_.find(id);
    if (it != conn_threads_.end()) {
      // Our own handle — a thread cannot join itself, so park it for the
      // accept loop (or Shutdown's sweep) to join. If Shutdown already moved
      // it out, it is joining us directly and there is nothing to park.
      finished_threads_.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
  }
  transport.reset();  // Last reference: the socket closes now, not at join.
  open_connections_.fetch_sub(1, std::memory_order_acq_rel);
}

void NetServer::ReapFinishedWorkers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    done.swap(finished_threads_);
  }
  // Join outside conn_mu_: a parked thread may still be finishing
  // FinishConnection's tail, and Shutdown's sweep takes the same lock.
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
  connections_reaped_.fetch_add(done.size(), std::memory_order_relaxed);
}

void NetServer::ServeConnection(Transport& transport) {
  std::unique_ptr<serve::Session> session = server_->StartSession();
  uint16_t last_seq = 0;
  while (!drain_token_.cancelled()) {
    if (!ServeOneFrame(transport, *session, &last_seq)) break;
  }
  transport.Shutdown();
}

bool NetServer::ServeOneFrame(Transport& transport, serve::Session& session,
                              uint16_t* last_seq) {
  uint8_t type = 0;
  std::string payload;
  uint16_t seq = 0;
  Status read = ReadFrame(transport, &type, &payload, &seq);
  if (!read.ok()) {
    if (read.code() == StatusCode::kUnavailable) return false;  // Clean EOF.
    // Malformed or torn frame: one best-effort typed reply, then close. The
    // stream cannot be resynced after garbage, so the connection is done.
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    SendError(transport, read);
    return false;
  }
  // At-most-once guard: a client never reuses the seq of its previous request
  // on a connection, so a second frame with the same nonzero seq is a network
  // duplicate (retransmission-style). Executing it would double-apply a
  // non-idempotent commit; replying would desync the request–reply pairing.
  // Drop it silently.
  if (seq != 0 && seq == *last_seq) return true;
  *last_seq = seq;

  switch (static_cast<FrameType>(type)) {
    case FrameType::kPing: {
      Status s = WriteFrame(transport,
                            static_cast<uint8_t>(FrameType::kPong), "", seq);
      return s.ok();
    }
    case FrameType::kReadRequest: {
      StatusOr<WireReadRequest> decoded = DecodeReadRequest(payload);
      if (!decoded.ok()) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, decoded.status(), 0, seq);
        return false;
      }
      InFlightSlot slot(&in_flight_, options_.max_in_flight);
      if (!slot.acquired()) {
        requests_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, Status::Unavailable("server at request capacity"),
                  options_.retry_after_ms, seq);
        return true;  // Connection stays usable; the client backs off.
      }
      serve::ReadRequest request;
      request.antecedents = std::move(decoded->antecedents);
      request.consequent = std::move(decoded->consequent);
      request.modality = decoded->modality == 0 ? Modality::kNecessarily
                                                : Modality::kPossibly;
      request.deadline_ms = decoded->deadline_ms;
      request.cancel = &drain_token_;
      StatusOr<serve::ReadResult> result = session.Query(request);
      if (!result.ok()) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, result.status(), 0, seq);
        // Semantic errors (bad formula, deadline) leave the connection and
        // the session fully usable; only transport-level trouble closes it.
        return true;
      }
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      WireReadReply reply;
      reply.holds = result->holds;
      reply.snapshot_version = result->snapshot_version;
      Status s = WriteFrame(transport,
                            static_cast<uint8_t>(FrameType::kReadReply),
                            EncodeReadReply(reply), seq);
      return s.ok();
    }
    case FrameType::kApplyRequest: {
      StatusOr<WireApplyRequest> decoded = DecodeApplyRequest(payload);
      if (!decoded.ok()) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, decoded.status(), 0, seq);
        return false;
      }
      InFlightSlot slot(&in_flight_, options_.max_in_flight);
      if (!slot.acquired()) {
        requests_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, Status::Unavailable("server at request capacity"),
                  options_.retry_after_ms, seq);
        return true;
      }
      if (drain_token_.cancelled()) {
        // Draining: no new commits — the store is about to be synced.
        requests_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, Status::Unavailable("server draining"),
                  options_.retry_after_ms, seq);
        return false;
      }
      StatusOr<uint64_t> version = server_->Apply(decoded->expression);
      if (!version.ok()) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, version.status(), 0, seq);
        return true;
      }
      // The WAL write (durable mode) happened inside Apply: the commit is on
      // disk before this acknowledgment leaves the process.
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      WireApplyReply reply;
      reply.version = *version;
      Status s = WriteFrame(transport,
                            static_cast<uint8_t>(FrameType::kApplyReply),
                            EncodeApplyReply(reply), seq);
      return s.ok();
    }
    case FrameType::kReplSubscribe: {
      StatusOr<WireReplSubscribe> decoded = DecodeReplSubscribe(payload);
      if (!decoded.ok()) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, decoded.status(), 0, seq);
        return false;
      }
      if (options_.repl == nullptr) {
        SendError(transport,
                  Status::Unsupported("server is not a replication primary"),
                  0, seq);
        return true;
      }
      StatusOr<WireReplSubscribeReply> reply =
          options_.repl->HandleSubscribe(*decoded);
      if (!reply.ok()) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, reply.status(), 0, seq);
        // Typed refusals (kFenced, kDataLoss) leave the connection open: the
        // follower decides whether to re-seed or stop.
        return true;
      }
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      Status s = WriteFrame(
          transport, static_cast<uint8_t>(FrameType::kReplSubscribeReply),
          EncodeReplSubscribeReply(*reply), seq);
      return s.ok();
    }
    case FrameType::kReplFetch: {
      StatusOr<WireReplFetch> decoded = DecodeReplFetch(payload);
      if (!decoded.ok()) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, decoded.status(), 0, seq);
        return false;
      }
      if (options_.repl == nullptr) {
        SendError(transport,
                  Status::Unsupported("server is not a replication primary"),
                  0, seq);
        return true;
      }
      // No InFlightSlot: a parked long-poll would pin a request slot for its
      // whole wait window and starve client traffic. The drain token bounds
      // the park instead.
      StatusOr<WireReplRecords> reply =
          options_.repl->HandleFetch(*decoded, &drain_token_);
      if (!reply.ok()) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, reply.status(), 0, seq);
        return true;
      }
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      Status s = WriteFrame(transport,
                            static_cast<uint8_t>(FrameType::kReplRecords),
                            EncodeReplRecords(*reply), seq);
      return s.ok();
    }
    case FrameType::kReplCkptFetch: {
      StatusOr<WireReplCkptFetch> decoded = DecodeReplCkptFetch(payload);
      if (!decoded.ok()) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, decoded.status(), 0, seq);
        return false;
      }
      if (options_.repl == nullptr) {
        SendError(transport,
                  Status::Unsupported("server is not a replication primary"),
                  0, seq);
        return true;
      }
      StatusOr<WireReplCkptChunk> reply =
          options_.repl->HandleCkptFetch(*decoded);
      if (!reply.ok()) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        SendError(transport, reply.status(), 0, seq);
        return true;
      }
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      Status s = WriteFrame(transport,
                            static_cast<uint8_t>(FrameType::kReplCkptChunk),
                            EncodeReplCkptChunk(*reply), seq);
      return s.ok();
    }
    case FrameType::kStatsRequest: {
      serve::Server::ServerStats st = server_->stats();
      WireStatsReply reply;
      reply.counters = {
          {"commits", st.commits},
          {"reads", st.reads},
          {"checkpoint_failures", st.checkpoint_failures},
          {"bank_hits", st.bank_hits},
          {"bank_misses", st.bank_misses},
          {"bank_budget_evictions", st.bank_budget_evictions},
          {"snapshot_version", st.snapshot_version},
          {"deadlines_exceeded", st.deadlines_exceeded},
          {"sat_interrupt_checks", st.sat_interrupt_checks},
          {"sat_budget_trips", st.sat_budget_trips},
      };
      Status s = WriteFrame(transport,
                            static_cast<uint8_t>(FrameType::kStatsReply),
                            EncodeStatsReply(reply), seq);
      return s.ok();
    }
    default:
      // Known type arriving on the wrong side (e.g. a client sending a
      // reply frame): protocol violation, close.
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      SendError(transport,
                Status::InvalidArgument("unexpected frame type " +
                                        std::to_string(type)),
                0, seq);
      return false;
  }
}

void NetServer::SendError(Transport& transport, const Status& status,
                          uint32_t retry_after_ms, uint16_t seq) {
  WireError e = ErrorFromStatus(status, retry_after_ms);
  if (status.code() == StatusCode::kReadOnly) {
    // A write refused at a replica carries the primary's address so the
    // client can redirect instead of retrying here forever.
    e.redirect = server_->redirect_hint();
  }
  // Best effort: the peer may already be gone.
  (void)WriteFrame(transport, static_cast<uint8_t>(FrameType::kError),
                   EncodeError(e), seq);
}

Status NetServer::WaitForShutdown() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    // RequestShutdown is async-signal-safe — a plain atomic store that
    // cannot notify a condvar from a signal handler — so the wait re-checks
    // that flag on a short timeout; a completed drain notifies directly.
    while (!shutdown_done_ &&
           !shutdown_requested_.load(std::memory_order_acquire)) {
      shutdown_cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
  }
  return Shutdown();
}

Status NetServer::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Another caller runs the drain; wait for it and report the same result
    // (a store-sync failure must reach every caller, not just the winner).
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_done_; });
    return shutdown_status_;
  }

  // 1. Stop accepting: claim and close the listener, which unblocks accept()
  // (with EBADF; the loop sees stopping_ set and exits).
  int listener = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listener >= 0) {
    ::shutdown(listener, SHUT_RDWR);
    ::close(listener);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Grace period: in-flight requests finish normally.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.drain_grace_ms);
  while (in_flight_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 3. Cancel stragglers: every request token is parented on drain_token_,
  // so the SAT search unwinds at its next check with kDeadlineExceeded and
  // the client gets a typed error, not silence. Parked readers unblock via
  // transport shutdown.
  drain_token_.Cancel();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& entry : live_transports_) entry.second->Shutdown();
    for (auto& entry : conn_threads_) workers.push_back(std::move(entry.second));
    conn_threads_.clear();
    for (std::thread& t : finished_threads_) workers.push_back(std::move(t));
    finished_threads_.clear();
  }
  // Join OUTSIDE conn_mu_: an exiting worker takes it to deregister itself
  // in FinishConnection, and a join-under-lock would deadlock with that.
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  connections_reaped_.fetch_add(workers.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    live_transports_.clear();
  }

  // 4. Durability barrier: every acknowledged commit is already in the WAL
  // (Apply writes before replying); Sync covers group-commit/manual modes.
  Status sync = server_->Sync();
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_done_ = true;
    shutdown_status_ = sync;
  }
  shutdown_cv_.notify_all();
  return sync;
}

NetServer::NetStats NetServer::net_stats() const {
  NetStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.connections_reaped = connections_reaped_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_acquire);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  s.requests_failed = requests_failed_.load(std::memory_order_relaxed);
  s.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace kbt::net
