#include "repl/primary.h"

#include <algorithm>
#include <chrono>

#include "store/recovery.h"

namespace kbt::repl {

namespace {

/// Server-side clamp on a fetch's long-poll wait.
constexpr uint32_t kMaxWaitMs = 10'000;
/// Batch bounds when the fetch leaves them 0.
constexpr uint32_t kDefaultMaxRecords = 128;
constexpr uint32_t kDefaultMaxBytes = 1u << 20;
/// Checkpoint transfer chunk bound (and clamp on the fetch's max_bytes).
constexpr uint32_t kCkptChunkBytes = 256u * 1024;

/// Smallest wal-<lsn> and largest checkpoint-<lsn> in a store directory.
/// The wal minimum is the GC horizon: records with lsn > horizon are
/// fetchable from files; the checkpoint maximum is what a re-seeding
/// follower installs.
struct DirScan {
  uint64_t horizon_lsn = 0;
  uint64_t snapshot_lsn = 0;
  bool any_wal = false;
  bool any_checkpoint = false;
};

DirScan ScanStoreDir(const std::vector<std::string>& names) {
  DirScan scan;
  for (const std::string& name : names) {
    std::optional<uint64_t> wal = store::ParseStoreLsnSuffix(name, "wal");
    if (wal.has_value() && (!scan.any_wal || *wal < scan.horizon_lsn)) {
      scan.horizon_lsn = *wal;
      scan.any_wal = true;
    }
    std::optional<uint64_t> ckpt =
        store::ParseStoreLsnSuffix(name, "checkpoint");
    if (ckpt.has_value() &&
        (!scan.any_checkpoint || *ckpt > scan.snapshot_lsn)) {
      scan.snapshot_lsn = *ckpt;
      scan.any_checkpoint = true;
    }
  }
  return scan;
}

}  // namespace

Primary::Primary(serve::Server* server, PrimaryOptions options)
    : server_(server), store_(server->store()), options_(std::move(options)) {}

Primary::~Primary() {
  // The hooks capture `this`; detach them so a server outliving its Primary
  // never calls into freed state.
  if (store_ != nullptr) {
    store_->SetCommitListener(nullptr);
    store_->SetRetainLsnHook(nullptr);
  }
  server_->SetCommitWaiter(nullptr);
}

StatusOr<std::unique_ptr<Primary>> Primary::Attach(serve::Server* server,
                                                   PrimaryOptions options) {
  store::DurableEngine* store = server->store();
  if (store == nullptr) {
    return Status::Unsupported(
        "replication needs a durable server (no WAL to ship in-memory)");
  }
  auto primary =
      std::unique_ptr<Primary>(new Primary(server, std::move(options)));

  StatusOr<ReplMeta> meta = ReadReplMeta(store->env(), store->dir());
  if (meta.ok()) {
    primary->meta_ = std::move(*meta);
  } else if (meta.status().code() == StatusCode::kNotFound) {
    // First time this store leads a replication group: epoch 1 begins at the
    // current committed lsn.
    primary->meta_.history = {{1, store->lsn()}};
    KBT_RETURN_IF_ERROR(
        WriteReplMeta(store->env(), store->dir(), primary->meta_));
  } else {
    return meta.status();
  }

  primary->last_lsn_ = store->lsn();
  primary->feed_start_lsn_ = primary->last_lsn_;

  Primary* p = primary.get();
  store->SetCommitListener([p](uint64_t lsn, const store::WalRecord& record) {
    p->OnCommit(lsn, record);
  });
  store->SetRetainLsnHook([p]() -> std::optional<uint64_t> {
    std::lock_guard<std::mutex> lock(p->mu_);
    if (p->subscribers_.empty()) return std::nullopt;
    uint64_t min_acked = UINT64_MAX;
    for (const auto& entry : p->subscribers_) {
      min_acked = std::min(min_acked, entry.second.acked_lsn);
    }
    return min_acked;
  });
  if (primary->options_.semi_sync) {
    server->SetCommitWaiter([p](uint64_t lsn) { return p->WaitSemiSync(lsn); });
  }
  return primary;
}

void Primary::OnCommit(uint64_t lsn, const store::WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  last_lsn_ = lsn;
  feed_.push_back(record);
  while (feed_.size() > options_.feed_capacity) {
    feed_.pop_front();
    ++feed_start_lsn_;
  }
  records_cv_.notify_all();
}

void Primary::FenceLocked(uint64_t newer_epoch) {
  fenced_ = true;
  // A deposed primary stops taking client writes immediately; it has no
  // redirect to offer (the promotion happened away from it).
  server_->SetReadOnly(true, "");
  (void)newer_epoch;
}

StatusOr<net::WireReplSubscribeReply> Primary::HandleSubscribe(
    const net::WireReplSubscribe& sub) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sub.epoch > meta_.epoch()) {
    // The subscriber saw a newer epoch than ours: a promotion happened while
    // we were away. This primary is deposed — fence before refusing.
    FenceLocked(sub.epoch);
    ++fenced_refusals_;
    return Status::Fenced("primary at epoch " + std::to_string(meta_.epoch()) +
                          " deposed by subscriber at epoch " +
                          std::to_string(sub.epoch));
  }
  if (fenced_) {
    ++fenced_refusals_;
    return Status::Fenced("this primary is deposed; find the new one");
  }

  KBT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       store_->env()->ListDir(store_->dir()));
  const DirScan scan = ScanStoreDir(names);

  net::WireReplSubscribeReply reply;
  reply.primary_id = options_.node_id;
  reply.epoch = meta_.epoch();
  reply.primary_lsn = last_lsn_;
  reply.horizon_lsn = scan.horizon_lsn;
  reply.epoch_history = meta_.history;

  bool need_snapshot = false;
  if (sub.has_state == 0) {
    // A fresh follower always seeds from a checkpoint: the primary's own
    // initial state (checkpoint-0, or later after GC) is not in any WAL.
    need_snapshot = true;
  } else {
    // Safety rule against the epoch history: the subscriber's log is a safe
    // prefix iff its lsn does not extend past the first promotion its epoch
    // did not witness.
    auto fork = std::find_if(
        meta_.history.begin(), meta_.history.end(),
        [&](const auto& entry) { return entry.first > sub.epoch; });
    if (fork == meta_.history.end()) {
      // Same epoch as us: a subscriber ahead of the primary holds records
      // this lineage never committed. No re-seed can reconcile silently —
      // surface it as the data loss it is.
      if (sub.start_lsn > last_lsn_) {
        return Status::DataLoss(
            "follower " + sub.follower_id + " at lsn " +
            std::to_string(sub.start_lsn) + " is ahead of primary lsn " +
            std::to_string(last_lsn_) + " in the same epoch " +
            std::to_string(sub.epoch) + "; refusing to diverge");
      }
    } else if (sub.start_lsn > fork->second) {
      // The subscriber committed under a deposed primary past the fork at
      // lsn fork->second; those records were never adopted here. Re-seed.
      need_snapshot = true;
    }
    if (!need_snapshot && sub.start_lsn < scan.horizon_lsn) {
      // Safe prefix, but the records it needs were garbage-collected.
      need_snapshot = true;
    }
  }

  if (need_snapshot) {
    if (!scan.any_checkpoint) {
      return Status::NotFound("no checkpoint in " + store_->dir() +
                              " to seed follower " + sub.follower_id);
    }
    reply.need_snapshot = 1;
    reply.snapshot_lsn = scan.snapshot_lsn;
    ++snapshot_seeds_;
  }

  // Register (or reset) the subscriber. Its ack starts at the lsn it will
  // resume from, which pins the files it still needs against GC.
  Subscriber s;
  s.acked_lsn = need_snapshot ? reply.snapshot_lsn : sub.start_lsn;
  s.epoch = meta_.epoch();
  subscribers_[sub.follower_id] = s;
  acks_cv_.notify_all();
  return reply;
}

StatusOr<net::WireReplRecords> Primary::HandleFetch(
    const net::WireReplFetch& fetch, const CancelToken* cancel) {
  std::unique_lock<std::mutex> lock(mu_);
  ++fetches_;
  if (fetch.epoch > meta_.epoch()) {
    FenceLocked(fetch.epoch);
    ++fenced_refusals_;
    return Status::Fenced("primary deposed by fetch at epoch " +
                          std::to_string(fetch.epoch));
  }
  if (fenced_) {
    ++fenced_refusals_;
    return Status::Fenced("this primary is deposed; find the new one");
  }
  if (fetch.epoch < meta_.epoch()) {
    ++fenced_refusals_;
    return Status::Fenced("fetch at stale epoch " +
                          std::to_string(fetch.epoch) + " (current " +
                          std::to_string(meta_.epoch()) + "); resubscribe");
  }
  auto it = subscribers_.find(fetch.follower_id);
  if (it == subscribers_.end()) {
    return Status::InvalidArgument("unknown follower " + fetch.follower_id +
                                   "; subscribe first");
  }

  // The fetch position is the durable ack: everything ≤ after_lsn is on the
  // follower's own WAL. This drives semi-sync waits and the GC pin.
  if (fetch.after_lsn > it->second.acked_lsn) {
    it->second.acked_lsn = fetch.after_lsn;
    acks_cv_.notify_all();
  }

  // Long-poll: park until records exist, the wait budget runs out, or the
  // server drains. Short slices keep the drain token's latency bounded even
  // though a commit notifies the condvar directly.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::min<uint32_t>(fetch.wait_ms, kMaxWaitMs));
  while (last_lsn_ <= fetch.after_lsn && !fenced_) {
    if (cancel != nullptr && cancel->cancelled()) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    records_cv_.wait_for(
        lock, std::min<std::chrono::steady_clock::duration>(
                  deadline - now, std::chrono::milliseconds(20)));
  }

  const size_t max_records = std::min<size_t>(
      fetch.max_records != 0 ? fetch.max_records : kDefaultMaxRecords,
      net::kMaxReplBatch);
  const size_t max_bytes =
      fetch.max_bytes != 0 ? fetch.max_bytes : kDefaultMaxBytes;

  net::WireReplRecords reply;
  reply.epoch = meta_.epoch();
  reply.start_lsn = fetch.after_lsn + 1;
  reply.primary_lsn = last_lsn_;
  if (last_lsn_ <= fetch.after_lsn) return reply;  // Empty poll.

  if (fetch.after_lsn >= feed_start_lsn_) {
    // The records are still in the in-memory feed.
    size_t idx = fetch.after_lsn - feed_start_lsn_;
    size_t bytes = 0;
    while (idx < feed_.size() && reply.records.size() < max_records) {
      const store::WalRecord& r = feed_[idx];
      if (!reply.records.empty() && bytes + r.payload.size() > max_bytes) break;
      reply.records.emplace_back(static_cast<uint8_t>(r.kind), r.payload);
      bytes += r.payload.size();
      ++idx;
    }
    records_shipped_ += reply.records.size();
    return reply;
  }

  // Feed fallback: read the store's own wal files. Drop the lock for the IO;
  // the reply's epoch/primary_lsn snapshot from above stays consistent (a
  // batch is valid for the epoch it names).
  lock.unlock();
  StatusOr<net::WireReplRecords> disk =
      FetchFromDisk(fetch.after_lsn, max_records, max_bytes);
  if (!disk.ok()) return disk.status();
  disk->epoch = reply.epoch;
  disk->primary_lsn = reply.primary_lsn;
  lock.lock();
  records_shipped_ += disk->records.size();
  return disk;
}

StatusOr<net::WireReplRecords> Primary::FetchFromDisk(uint64_t after_lsn,
                                                      size_t max_records,
                                                      size_t max_bytes) {
  KBT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       store_->env()->ListDir(store_->dir()));
  // The records after `after_lsn` start in wal-<W> for the largest W ≤
  // after_lsn: that file holds records W+1… .
  bool found = false;
  uint64_t wal_lsn = 0;
  for (const std::string& name : names) {
    std::optional<uint64_t> w = store::ParseStoreLsnSuffix(name, "wal");
    if (w.has_value() && *w <= after_lsn && (!found || *w > wal_lsn)) {
      wal_lsn = *w;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound("records after lsn " + std::to_string(after_lsn) +
                            " are below the GC horizon; re-seed");
  }
  KBT_ASSIGN_OR_RETURN(
      std::string bytes,
      store_->env()->ReadFile(store_->dir() + "/" +
                              store::WalFileName(wal_lsn)));
  KBT_ASSIGN_OR_RETURN(store::WalContents contents, store::ReadWal(bytes));
  const uint64_t skip = after_lsn - contents.start_lsn;
  if (skip > contents.records.size()) {
    // A gap: this file ends before after_lsn and the next one starts later
    // (its predecessor was collected). Only a re-seed can bridge it.
    return Status::NotFound("wal gap after lsn " + std::to_string(after_lsn) +
                            "; re-seed");
  }
  net::WireReplRecords reply;
  reply.start_lsn = after_lsn + 1;
  size_t total = 0;
  for (size_t i = skip;
       i < contents.records.size() && reply.records.size() < max_records;
       ++i) {
    const store::WalRecord& r = contents.records[i];
    if (!reply.records.empty() && total + r.payload.size() > max_bytes) break;
    reply.records.emplace_back(static_cast<uint8_t>(r.kind), r.payload);
    total += r.payload.size();
  }
  if (reply.records.empty()) {
    // The file exists but holds none of the wanted records (after_lsn is at
    // its end and the successor file was collected — or never existed yet
    // because those records are only in the feed's dropped range).
    return Status::NotFound("records after lsn " + std::to_string(after_lsn) +
                            " unavailable on disk; re-seed");
  }
  return reply;
}

StatusOr<net::WireReplCkptChunk> Primary::HandleCkptFetch(
    const net::WireReplCkptFetch& fetch) {
  const std::string path =
      store_->dir() + "/" + store::CheckpointFileName(fetch.lsn);
  if (!store_->env()->FileExists(path)) {
    return Status::NotFound("no checkpoint at lsn " +
                            std::to_string(fetch.lsn) + "; resubscribe");
  }
  KBT_ASSIGN_OR_RETURN(std::string bytes, store_->env()->ReadFile(path));
  if (fetch.offset > bytes.size()) {
    return Status::InvalidArgument("checkpoint chunk offset " +
                                   std::to_string(fetch.offset) +
                                   " beyond file size " +
                                   std::to_string(bytes.size()));
  }
  const size_t cap = std::min<size_t>(
      fetch.max_bytes != 0 ? fetch.max_bytes : kCkptChunkBytes,
      kCkptChunkBytes);
  net::WireReplCkptChunk chunk;
  chunk.lsn = fetch.lsn;
  chunk.offset = fetch.offset;
  chunk.total_size = bytes.size();
  chunk.bytes = bytes.substr(fetch.offset, cap);
  return chunk;
}

Status Primary::WaitSemiSync(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.semi_sync_timeout_ms);
  while (true) {
    for (const auto& entry : subscribers_) {
      if (entry.second.acked_lsn >= lsn) return Status::OK();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ++semi_sync_timeouts_;
      return Status::DeadlineExceeded(
          "commit at lsn " + std::to_string(lsn) +
          " is durable locally but unacked by any replica after " +
          std::to_string(options_.semi_sync_timeout_ms) + "ms");
    }
    acks_cv_.wait_until(lock, deadline);
  }
}

void Primary::DropSubscriber(const std::string& follower_id) {
  std::lock_guard<std::mutex> lock(mu_);
  subscribers_.erase(follower_id);
}

uint64_t Primary::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return meta_.epoch();
}

bool Primary::fenced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_;
}

Primary::Stats Primary::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.epoch = meta_.epoch();
  s.fenced = fenced_;
  s.subscribers = subscribers_.size();
  if (!subscribers_.empty()) {
    uint64_t min_acked = UINT64_MAX;
    for (const auto& entry : subscribers_) {
      min_acked = std::min(min_acked, entry.second.acked_lsn);
    }
    s.min_acked_lsn = min_acked;
  }
  s.fetches = fetches_;
  s.records_shipped = records_shipped_;
  s.snapshot_seeds = snapshot_seeds_;
  s.fenced_refusals = fenced_refusals_;
  s.semi_sync_timeouts = semi_sync_timeouts_;
  return s;
}

}  // namespace kbt::repl
