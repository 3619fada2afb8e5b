#include "store/durable_engine.h"

#include <utility>

#include "base/interner.h"
#include "store/checkpoint.h"
#include "store/recovery.h"

namespace kbt::store {

namespace {

/// The kInsert/kDelete record of `rows` for `relation`, validated against
/// `schema` up front so a bad call never reaches the log.
StatusOr<WalRecord> TupleDeltaRecord(
    const Schema& schema, WalRecordKind kind, std::string_view relation,
    const std::vector<std::vector<std::string>>& rows) {
  std::optional<size_t> pos = schema.PositionOf(Name(relation));
  if (!pos.has_value()) {
    return Status::NotFound("no relation " + std::string(relation) +
                            " in the store's schema");
  }
  const size_t arity = schema.decl(*pos).arity;
  for (const auto& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument("tuple of width " +
                                     std::to_string(row.size()) + " for " +
                                     std::string(relation) + "/" +
                                     std::to_string(arity));
    }
  }
  WalRecord record;
  record.kind = kind;
  record.payload = EncodeTupleDelta(relation, arity, rows);
  return record;
}

}  // namespace

DurableEngine::DurableEngine(std::string dir, StoreOptions store_options,
                             EngineOptions engine_options)
    : dir_(std::move(dir)),
      env_(store_options.env != nullptr ? store_options.env : Env::Default()),
      engine_(std::move(engine_options)) {}

DurableEngine::~DurableEngine() {
  if (wal_ != nullptr) {
    Status ignored = wal_->Close();
    (void)ignored;
  }
}

StatusOr<std::unique_ptr<DurableEngine>> DurableEngine::Open(
    const std::string& dir, const Knowledgebase& initial,
    StoreOptions store_options, EngineOptions engine_options) {
  auto store = std::unique_ptr<DurableEngine>(
      new DurableEngine(dir, store_options, std::move(engine_options)));
  Env* env = store->env_;
  KBT_RETURN_IF_ERROR(env->CreateDir(dir));

  StatusOr<RecoveredStore> recovered = RecoverStore(env, dir, store->engine_);
  if (recovered.ok()) {
    store->kb_ = std::move(recovered->kb);
    store->lsn_ = recovered->lsn;
    store->checkpoint_lsn_ = recovered->checkpoint_lsn;
    uint64_t existing = 0;
    if (recovered->wal_exists) {
      if (recovered->wal_valid_bytes < recovered->wal_file_size) {
        // Cut the torn tail a crash left behind before appending after it.
        KBT_RETURN_IF_ERROR(env->TruncateFile(
            dir + "/" + WalFileName(store->checkpoint_lsn_),
            recovered->wal_valid_bytes));
      }
      existing = recovered->wal_valid_bytes;
    }
    KBT_RETURN_IF_ERROR(store->OpenWal(existing));
  } else if (recovered.status().code() == StatusCode::kNotFound) {
    // Fresh store: `initial` becomes checkpoint 0, then its log starts.
    KBT_RETURN_IF_ERROR(WriteCheckpoint(
        env, dir, dir + "/" + CheckpointFileName(0), initial, 0));
    store->kb_ = initial;
    KBT_RETURN_IF_ERROR(store->OpenWal(0));
  } else {
    return recovered.status();
  }
  return store;
}

Status DurableEngine::OpenWal(uint64_t existing_bytes) {
  const std::string path = dir_ + "/" + WalFileName(checkpoint_lsn_);
  // A "fresh" log must really start empty: wal-<lsn> can already exist with a
  // header — an idle checkpoint (lsn_ == checkpoint_lsn_) reuses its own log
  // name, and a fallback recovery can leave a stale one behind. Appending a
  // second header there would read as a corrupt tail on the next recovery.
  KBT_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       existing_bytes == 0 ? env_->NewTruncatedFile(path)
                                           : env_->NewAppendableFile(path));
  KBT_ASSIGN_OR_RETURN(
      wal_, WalWriter::Create(std::move(file), existing_bytes, checkpoint_lsn_));
  last_good_wal_bytes_ =
      existing_bytes == 0 ? kWalHeaderSize : existing_bytes;
  return Status::OK();
}

StatusOr<Knowledgebase> DurableEngine::Apply(std::string_view expression) {
  WalRecord record;
  record.kind = WalRecordKind::kTransform;
  record.payload = std::string(expression);
  KBT_RETURN_IF_ERROR(Commit(record));
  return kb_;
}

Status DurableEngine::ApplyReplicated(const WalRecord& record) {
  return Commit(record);
}

Status DurableEngine::Commit(const WalRecord& record) {
  KBT_RETURN_IF_ERROR(RefuseWhenBroken());
  // The function recovery replays with, so replay is bit-identical by
  // construction.
  KBT_ASSIGN_OR_RETURN(Knowledgebase next,
                       ApplyWalRecord(engine_, record, kb_));
  Status s = wal_->Append(record);
  if (s.ok()) s = wal_->Sync();
  if (!s.ok()) {
    // The record is torn or of unknown durability, and the in-memory state
    // will not adopt it — cut it back out so the log matches the state.
    SelfHeal();
    return s;
  }
  last_good_wal_bytes_ += kWalRecordHeadSize + record.payload.size();
  kb_ = std::move(next);
  ++lsn_;
  if (commit_listener_ != nullptr) commit_listener_(lsn_, record);
  return Status::OK();
}

Status DurableEngine::RefuseWhenBroken() const {
  if (!broken_) return Status::OK();
  return Status::IOError("store at " + dir_ + " is broken; reopen to recover");
}

void DurableEngine::SelfHeal() {
  if (wal_ != nullptr) {
    Status ignored = wal_->Close();
    (void)ignored;
    wal_.reset();
  }
  const std::string path = dir_ + "/" + WalFileName(checkpoint_lsn_);
  if (env_->TruncateFile(path, last_good_wal_bytes_).ok()) {
    StatusOr<std::unique_ptr<File>> file = env_->NewAppendableFile(path);
    if (file.ok()) {
      StatusOr<std::unique_ptr<WalWriter>> writer = WalWriter::Create(
          std::move(*file), last_good_wal_bytes_, checkpoint_lsn_);
      if (writer.ok()) {
        wal_ = std::move(*writer);
        return;
      }
    }
  }
  broken_ = true;
}

Status DurableEngine::InsertTuples(
    std::string_view relation,
    const std::vector<std::vector<std::string>>& rows) {
  KBT_ASSIGN_OR_RETURN(
      WalRecord record,
      TupleDeltaRecord(kb_.schema(), WalRecordKind::kInsert, relation, rows));
  return Commit(record);
}

Status DurableEngine::DeleteTuples(
    std::string_view relation,
    const std::vector<std::vector<std::string>>& rows) {
  KBT_ASSIGN_OR_RETURN(
      WalRecord record,
      TupleDeltaRecord(kb_.schema(), WalRecordKind::kDelete, relation, rows));
  return Commit(record);
}

Status DurableEngine::Sync() {
  KBT_RETURN_IF_ERROR(RefuseWhenBroken());
  Status s = wal_->Sync();
  if (!s.ok()) {
    // Nothing was torn (all appended records are whole), but the handle may
    // be wedged; reopen it on the intact log.
    SelfHeal();
  }
  return s;
}

Status DurableEngine::Checkpoint() {
  KBT_RETURN_IF_ERROR(RefuseWhenBroken());
  const uint64_t lsn = lsn_;
  KBT_RETURN_IF_ERROR(WriteCheckpoint(
      env_, dir_, dir_ + "/" + CheckpointFileName(lsn), kb_, lsn));

  // The checkpoint is durable; switch to its (empty) log. A crash between the
  // two leaves checkpoint-<lsn> without wal-<lsn>, which recovery accepts.
  if (wal_ != nullptr) {
    Status ignored = wal_->Close();
    (void)ignored;
    wal_.reset();
  }
  checkpoint_lsn_ = lsn;
  Status opened = OpenWal(0);
  if (!opened.ok()) {
    // Committed state is safe in the checkpoint, but there is no log to
    // append to: refuse further commits until reopened.
    broken_ = true;
    return opened;
  }

  // Garbage-collect superseded files (best effort — leftovers are ignored by
  // recovery and retried on the next checkpoint).
  StatusOr<std::vector<std::string>> names = env_->ListDir(dir_);
  if (names.ok()) {
    // Retention pin: a subscribed follower acked only up to `pin` must still
    // be able to fetch records pin+1… (or re-seed). Those live in the files
    // at the pin's *floor checkpoint* — the largest checkpoint lsn ≤ pin:
    // wal-<floor> holds the records and checkpoint-<floor> is the snapshot a
    // re-seeding follower at that horizon would pull. Everything from the
    // floor up survives; without a pin the floor is the fresh checkpoint.
    uint64_t keep_from = lsn;
    if (retain_lsn_hook_ != nullptr) {
      std::optional<uint64_t> pin = retain_lsn_hook_();
      if (pin.has_value() && *pin < lsn) {
        uint64_t floor = 0;
        for (const std::string& name : *names) {
          std::optional<uint64_t> c = ParseStoreLsnSuffix(name, "checkpoint");
          if (c.has_value() && *c <= *pin && *c >= floor) floor = *c;
        }
        keep_from = floor;
      }
    }
    for (const std::string& name : *names) {
      std::optional<uint64_t> checkpoint_of =
          ParseStoreLsnSuffix(name, "checkpoint");
      std::optional<uint64_t> wal_of = ParseStoreLsnSuffix(name, "wal");
      bool stale = (checkpoint_of.has_value() && *checkpoint_of < keep_from) ||
                   (wal_of.has_value() && *wal_of < keep_from) ||
                   name.ends_with(".tmp");
      if (stale) {
        Status ignored = env_->RemoveFile(dir_ + "/" + name);
        (void)ignored;
      }
    }
    Status ignored = env_->SyncDir(dir_);
    (void)ignored;
  }
  return Status::OK();
}

}  // namespace kbt::store
