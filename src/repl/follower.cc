#include "repl/follower.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "store/checkpoint.h"
#include "store/recovery.h"

namespace kbt::repl {

namespace {

/// Frames to skip per exchange before declaring the stream desynced (a
/// duplicated reply from a network fault echoes a stale seq).
constexpr int kMaxStaleReplies = 4;

/// Transport-level corruption (garbage bytes, desync, truncation) means THIS
/// CONNECTION is unusable — not that the replica's data diverged. Demote it
/// to kUnavailable so the caller redials instead of declaring data loss;
/// kDataLoss stays reserved for semantic verdicts (a typed refusal from the
/// primary, a checkpoint image that fails validation).
Status DemoteTransportError(Status s) {
  if (s.code() == StatusCode::kDataLoss) {
    return Status::Unavailable("connection corrupt: " +
                               std::string(s.message()));
  }
  return s;
}

}  // namespace

Follower::Follower(FollowerOptions options)
    : options_(std::move(options)),
      env_(options_.store.env != nullptr ? options_.store.env
                                         : store::Env::Default()) {}

Follower::~Follower() { Stop(); }

StatusOr<std::unique_ptr<Follower>> Follower::Open(FollowerOptions options) {
  if (!options.connect) {
    return Status::InvalidArgument("FollowerOptions.connect is required");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("FollowerOptions.dir is required");
  }
  auto follower = std::unique_ptr<Follower>(new Follower(std::move(options)));
  KBT_RETURN_IF_ERROR(follower->env_->CreateDir(follower->options_.dir));

  StatusOr<ReplMeta> meta =
      ReadReplMeta(follower->env_, follower->options_.dir);
  if (meta.ok()) {
    follower->meta_ = std::move(*meta);
  } else if (meta.status().code() != StatusCode::kNotFound) {
    return meta.status();
  }
  follower->epoch_.store(follower->meta_.epoch(), std::memory_order_release);

  // A directory with a checkpoint is prior state to resume from; without one
  // the follower is fresh and the primary will seed it.
  KBT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       follower->env_->ListDir(follower->options_.dir));
  bool has_state = false;
  for (const std::string& name : names) {
    if (store::ParseStoreLsnSuffix(name, "checkpoint").has_value()) {
      has_state = true;
      break;
    }
  }
  if (has_state) KBT_RETURN_IF_ERROR(follower->OpenServer());

  // The handshake runs synchronously: an open Follower is already a
  // consistent, caught-up-enough read replica.
  KBT_RETURN_IF_ERROR(follower->Connect());
  KBT_RETURN_IF_ERROR(follower->Subscribe());
  follower->opened_ = true;
  return follower;
}

Status Follower::OpenServer() {
  KBT_ASSIGN_OR_RETURN(
      server_, serve::Server::OpenDurable(options_.dir, options_.initial,
                                          options_.store, options_.serve));
  server_->SetReadOnly(true, options_.redirect_hint);
  applied_lsn_.store(server_->store()->lsn(), std::memory_order_release);
  return Status::OK();
}

Status Follower::Connect() {
  StatusOr<std::unique_ptr<net::Transport>> t = options_.connect();
  if (!t.ok()) return t.status();
  {
    std::lock_guard<std::mutex> lock(transport_mu_);
    transport_ = std::move(*t);
  }
  subscribed_ = false;
  return Status::OK();
}

Status Follower::Exchange(uint8_t type, const std::string& payload,
                          uint8_t expected_reply, std::string* reply_payload,
                          bool* typed) {
  *typed = false;
  std::shared_ptr<net::Transport> t;
  {
    std::lock_guard<std::mutex> lock(transport_mu_);
    t = transport_;
  }
  if (t == nullptr) return Status::Unavailable("not connected to a primary");

  const uint16_t seq = next_seq_;
  if (++next_seq_ == 0) next_seq_ = 1;  // 0 marks out-of-exchange frames.

  auto drop = [&] {
    std::lock_guard<std::mutex> lock(transport_mu_);
    if (transport_ == t) transport_.reset();
    subscribed_ = false;
  };

  Status s = net::WriteFrame(*t, type, payload, seq);
  if (!s.ok()) {
    drop();
    return DemoteTransportError(std::move(s));
  }
  for (int stale = 0; stale <= kMaxStaleReplies; ++stale) {
    uint8_t rtype = 0;
    std::string rpayload;
    uint16_t rseq = 0;
    s = net::ReadFrame(*t, &rtype, &rpayload, &rseq);
    if (!s.ok()) {
      drop();
      return DemoteTransportError(std::move(s));
    }
    // A reply carrying a previous exchange's seq is a duplicated frame
    // (retransmission-style fault): discard it and keep reading.
    if (rseq != seq) continue;
    if (rtype == static_cast<uint8_t>(net::FrameType::kError)) {
      StatusOr<net::WireError> err = net::DecodeError(rpayload);
      if (!err.ok()) {
        drop();
        return DemoteTransportError(err.status());
      }
      *typed = true;
      return net::StatusFromError(*err);
    }
    if (rtype != expected_reply) {
      drop();
      return Status::Unavailable("unexpected reply frame type " +
                                 std::to_string(rtype));
    }
    *reply_payload = std::move(rpayload);
    return Status::OK();
  }
  drop();
  return Status::Unavailable("no reply matched the request seq");
}

Status Follower::Subscribe() {
  net::WireReplSubscribe sub;
  sub.follower_id = options_.node_id;
  sub.has_state = server_ != nullptr ? 1 : 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    sub.epoch = meta_.epoch();
  }
  sub.start_lsn =
      server_ != nullptr ? applied_lsn_.load(std::memory_order_acquire) : 0;

  std::string payload;
  bool typed = false;
  KBT_RETURN_IF_ERROR(
      Exchange(static_cast<uint8_t>(net::FrameType::kReplSubscribe),
               net::EncodeReplSubscribe(sub),
               static_cast<uint8_t>(net::FrameType::kReplSubscribeReply),
               &payload, &typed));
  StatusOr<net::WireReplSubscribeReply> decoded =
      net::DecodeReplSubscribeReply(payload);
  if (!decoded.ok()) {
    std::lock_guard<std::mutex> lock(transport_mu_);
    transport_.reset();
    return DemoteTransportError(decoded.status());
  }
  net::WireReplSubscribeReply reply = std::move(*decoded);
  if (reply.epoch_history.empty() ||
      reply.epoch_history.back().first != reply.epoch) {
    return Status::DataLoss("subscribe reply epoch history is inconsistent");
  }

  if (reply.need_snapshot != 0) {
    if (opened_) {
      // Embedders hold server() for the follower's life (the net front, a
      // shell session), so it is never swapped out. kLost here means
      // "restart me": a fresh Open re-seeds.
      return Status::DataLoss(
          "catch-up needs a re-seed after Open; restart the follower");
    }
    KBT_RETURN_IF_ERROR(InstallSnapshot(reply.snapshot_lsn));
  } else if (server_ == nullptr) {
    return Status::DataLoss(
        "primary offered records to a follower with no state");
  }

  // Adopt the primary's lineage durably before applying anything under it.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    meta_.history = reply.epoch_history;
    KBT_RETURN_IF_ERROR(WriteReplMeta(env_, options_.dir, meta_));
    primary_lsn_ = reply.primary_lsn;
  }
  epoch_.store(reply.epoch, std::memory_order_release);
  server_->SetReadOnly(true, options_.redirect_hint);
  subscribed_ = true;
  return Status::OK();
}

Status Follower::InstallSnapshot(uint64_t snapshot_lsn) {
  std::string image;
  uint64_t total = 0;
  do {
    net::WireReplCkptFetch fetch;
    fetch.lsn = snapshot_lsn;
    fetch.offset = image.size();
    std::string payload;
    bool typed = false;
    KBT_RETURN_IF_ERROR(
        Exchange(static_cast<uint8_t>(net::FrameType::kReplCkptFetch),
                 net::EncodeReplCkptFetch(fetch),
                 static_cast<uint8_t>(net::FrameType::kReplCkptChunk),
                 &payload, &typed));
    StatusOr<net::WireReplCkptChunk> decoded =
        net::DecodeReplCkptChunk(payload);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(transport_mu_);
      transport_.reset();
      return DemoteTransportError(decoded.status());
    }
    net::WireReplCkptChunk chunk = std::move(*decoded);
    if (chunk.lsn != snapshot_lsn || chunk.offset != image.size()) {
      // A mid-transfer GC or primary restart can reshuffle chunks; retrying
      // the whole transfer on a fresh subscribe is always safe.
      return Status::Unavailable("checkpoint chunk out of order; retrying");
    }
    if (chunk.bytes.empty() && chunk.total_size > image.size()) {
      return Status::Unavailable("empty checkpoint chunk mid-transfer");
    }
    image.append(chunk.bytes);
    total = chunk.total_size;
  } while (image.size() < total);

  // Validate the whole image *before* touching local state: a corrupted
  // transfer must not cost the store we already have.
  KBT_ASSIGN_OR_RETURN(store::CheckpointContents contents,
                       store::DecodeCheckpoint(image));
  if (contents.lsn != snapshot_lsn) {
    return Status::DataLoss("checkpoint image lsn " +
                            std::to_string(contents.lsn) +
                            " does not match offered lsn " +
                            std::to_string(snapshot_lsn));
  }

  // Replace local state: close the store, clear superseded files, land the
  // new checkpoint atomically, recover from it.
  server_.reset();
  KBT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env_->ListDir(options_.dir));
  for (const std::string& name : names) {
    const bool old_store_file =
        store::ParseStoreLsnSuffix(name, "checkpoint").has_value() ||
        store::ParseStoreLsnSuffix(name, "wal").has_value() ||
        name.ends_with(".tmp");
    if (old_store_file) {
      KBT_RETURN_IF_ERROR(env_->RemoveFile(options_.dir + "/" + name));
    }
  }
  const std::string path =
      options_.dir + "/" + store::CheckpointFileName(snapshot_lsn);
  const std::string tmp = path + ".tmp";
  KBT_ASSIGN_OR_RETURN(std::unique_ptr<store::File> file,
                       env_->NewTruncatedFile(tmp));
  KBT_RETURN_IF_ERROR(file->Append(image));
  KBT_RETURN_IF_ERROR(file->Sync());
  KBT_RETURN_IF_ERROR(file->Close());
  KBT_RETURN_IF_ERROR(env_->RenameFile(tmp, path));
  KBT_RETURN_IF_ERROR(env_->SyncDir(options_.dir));

  KBT_RETURN_IF_ERROR(OpenServer());
  if (applied_lsn_.load(std::memory_order_acquire) != snapshot_lsn) {
    return Status::DataLoss("recovered lsn does not match installed snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++snapshot_installs_;
  }
  return Status::OK();
}

Status Follower::PollOnce() {
  const FollowerState state = state_.load(std::memory_order_acquire);
  if (state == FollowerState::kLost) {
    return Status::DataLoss("follower has diverged; replication is over");
  }
  if (state == FollowerState::kPromoted) {
    return Status::InvalidArgument("follower was promoted; it leads now");
  }

  {
    std::lock_guard<std::mutex> lock(transport_mu_);
    if (transport_ == nullptr) subscribed_ = false;
  }
  bool connected;
  {
    std::lock_guard<std::mutex> lock(transport_mu_);
    connected = transport_ != nullptr;
  }
  if (!connected) {
    Status c = Connect();
    if (!c.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++reconnects_;
      }
      Backoff();
      return Status::OK();  // Survivable; retry next round.
    }
  }
  if (!subscribed_) {
    Status s = Subscribe();
    if (!s.ok()) {
      if (s.code() == StatusCode::kDataLoss) return Lost(std::move(s));
      // kFenced (the peer is deposed, or has not caught up to a promotion),
      // transport errors, a missing checkpoint: all survivable — back off
      // and retry, possibly against a different primary next round.
      Backoff();
      return Status::OK();
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++resubscribes_;
  }

  net::WireReplFetch fetch;
  fetch.follower_id = options_.node_id;
  fetch.epoch = epoch_.load(std::memory_order_acquire);
  fetch.after_lsn = applied_lsn_.load(std::memory_order_acquire);
  fetch.wait_ms = options_.poll_wait_ms;
  std::string payload;
  bool typed = false;
  Status s = Exchange(static_cast<uint8_t>(net::FrameType::kReplFetch),
                      net::EncodeReplFetch(fetch),
                      static_cast<uint8_t>(net::FrameType::kReplRecords),
                      &payload, &typed);
  if (!s.ok()) {
    if (typed) {
      switch (s.code()) {
        case StatusCode::kFenced:
          // Our epoch is stale (a promotion we have not adopted) or the peer
          // is deposed. Resubscribing sorts out which: it either hands us
          // the new lineage or keeps refusing while we back off.
          subscribed_ = false;
          break;
        case StatusCode::kNotFound:
          // Fell below the GC horizon: the resubscribe's re-seed demand
          // makes the follower kLost.
          subscribed_ = false;
          break;
        case StatusCode::kInvalidArgument:
          // The primary restarted and forgot us: subscribe again.
          subscribed_ = false;
          break;
        case StatusCode::kDataLoss:
          return Lost(std::move(s));
        default:
          break;
      }
    }
    Backoff();
    return Status::OK();
  }
  StatusOr<net::WireReplRecords> batch = net::DecodeReplRecords(payload);
  if (!batch.ok()) {
    // A malformed batch after a CRC-valid frame: drop the connection and
    // resync with a fresh exchange.
    std::lock_guard<std::mutex> lock(transport_mu_);
    transport_.reset();
    subscribed_ = false;
    Backoff();
    return Status::OK();
  }
  return ApplyBatch(*batch);
}

Status Follower::ApplyBatch(const net::WireReplRecords& batch) {
  const uint64_t my_epoch = epoch_.load(std::memory_order_acquire);
  if (batch.epoch < my_epoch) {
    // A deposed primary's parting shots. Refuse the whole batch unapplied
    // and drop the connection — this peer is behind the lineage we adopted.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stale_batches_refused_;
    }
    std::lock_guard<std::mutex> lock(transport_mu_);
    transport_.reset();
    subscribed_ = false;
    return Status::OK();
  }
  if (batch.epoch > my_epoch) {
    // A promotion we have not adopted: resubscribe to persist the new
    // lineage before applying records committed under it.
    subscribed_ = false;
    return Status::OK();
  }

  const uint64_t expect = applied_lsn_.load(std::memory_order_acquire) + 1;
  if (!batch.records.empty() && batch.start_lsn > expect) {
    // A gap cannot be applied; resubscribe to re-plan catch-up.
    subscribed_ = false;
    return Status::OK();
  }
  size_t applied = 0;
  if (!batch.records.empty()) {
    const uint64_t skip64 = expect - batch.start_lsn;
    if (skip64 < batch.records.size()) {
      for (size_t i = static_cast<size_t>(skip64); i < batch.records.size();
           ++i) {
        store::WalRecord record;
        record.kind = static_cast<store::WalRecordKind>(batch.records[i].first);
        record.payload = batch.records[i].second;
        StatusOr<uint64_t> version = server_->ApplyReplicated(record);
        if (!version.ok()) {
          // A record the primary committed failed to commit here: the stores
          // can no longer be bit-identical. Terminal — reopening the
          // follower (fresh recovery) is the way back.
          return Lost(version.status());
        }
        applied_lsn_.store(server_->store()->lsn(), std::memory_order_release);
        ++applied;
      }
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  primary_lsn_ = batch.primary_lsn;
  if (applied > 0) {
    ++batches_applied_;
    records_applied_ += applied;
  }
  return Status::OK();
}

Status Follower::Lost(Status why) {
  state_.store(FollowerState::kLost, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  return why;
}

void Follower::Backoff() {
  if (stop_.load(std::memory_order_acquire)) return;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(options_.reconnect_backoff_ms));
}

Status Follower::Start() {
  if (pull_thread_.joinable()) return Status::OK();
  if (state_.load(std::memory_order_acquire) == FollowerState::kLost) {
    return Status::DataLoss("follower has diverged; reopen to re-seed");
  }
  if (state_.load(std::memory_order_acquire) == FollowerState::kPromoted) {
    return Status::InvalidArgument("follower was promoted; it leads now");
  }
  stop_.store(false, std::memory_order_release);
  state_.store(FollowerState::kStreaming, std::memory_order_release);
  pull_thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      if (!PollOnce().ok()) break;
    }
    FollowerState expected = FollowerState::kStreaming;
    state_.compare_exchange_strong(expected, FollowerState::kIdle);
  });
  return Status::OK();
}

void Follower::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    // Unblock a parked long-poll; the transport survives for the next round.
    std::lock_guard<std::mutex> lock(transport_mu_);
    if (transport_ != nullptr) transport_->Shutdown();
  }
  if (pull_thread_.joinable()) pull_thread_.join();
  {
    // The shut-down transport is dead either way; drop it so a later
    // Start()/PollOnce dials fresh.
    std::lock_guard<std::mutex> lock(transport_mu_);
    transport_.reset();
  }
  subscribed_ = false;
  FollowerState expected = FollowerState::kStreaming;
  state_.compare_exchange_strong(expected, FollowerState::kIdle);
}

StatusOr<uint64_t> Follower::Promote() {
  Stop();
  if (state_.load(std::memory_order_acquire) == FollowerState::kLost) {
    return Status::DataLoss("cannot promote a diverged follower");
  }
  if (server_ == nullptr) {
    return Status::InvalidArgument("cannot promote before any state exists");
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  const uint64_t new_epoch = meta_.epoch() + 1;
  meta_.history.emplace_back(new_epoch,
                             applied_lsn_.load(std::memory_order_acquire));
  Status persisted = WriteReplMeta(env_, options_.dir, meta_);
  if (!persisted.ok()) {
    // The fork point must be durable before any write is accepted; without
    // it a later reconciliation could not place this lineage.
    meta_.history.pop_back();
    return persisted;
  }
  epoch_.store(new_epoch, std::memory_order_release);
  server_->SetReadOnly(false);
  state_.store(FollowerState::kPromoted, std::memory_order_release);
  return new_epoch;
}

Follower::Stats Follower::stats() const {
  Stats s;
  s.state = state_.load(std::memory_order_acquire);
  s.epoch = epoch_.load(std::memory_order_acquire);
  s.applied_lsn = applied_lsn_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(stats_mu_);
  s.primary_lsn = primary_lsn_;
  s.batches_applied = batches_applied_;
  s.records_applied = records_applied_;
  s.reconnects = reconnects_;
  s.resubscribes = resubscribes_;
  s.snapshot_installs = snapshot_installs_;
  s.stale_batches_refused = stale_batches_refused_;
  return s;
}

}  // namespace kbt::repl
