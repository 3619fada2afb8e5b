#include "store/recovery.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "rel/overlay.h"
#include "rel/relation.h"
#include "store/checkpoint.h"

namespace kbt::store {

namespace {

StatusOr<Knowledgebase> ApplyTupleDelta(const Knowledgebase& kb,
                                        WalRecordKind kind,
                                        std::string_view payload) {
  PayloadNames names;
  KBT_ASSIGN_OR_RETURN(DecodedDelta decoded,
                       ParseTupleDelta(payload, kb.schema(), &names));
  const size_t pos = decoded.pos;
  const Relation& change = decoded.rows;
  if (kb.empty()) return Knowledgebase(kb.schema());

  // The edit applies to every world W uniformly: W' = W ∪ C (insert) or
  // W \ C (delete). Fold C into the shared base once — B' = B ∪ C / B \ C —
  // and the repaired overlay of each world relative to B' is, in both cases,
  //   adds' = adds \ C,  dels' = dels \ C
  // (an inserted tuple leaves per-world adds and is no longer a deletable
  // base tuple; a deleted tuple leaves the base, so neither side may mention
  // it). O(base relation + worlds × delta) instead of O(worlds × database).
  Database base = *kb.base();
  const Relation& old = base.relation_at(pos);
  base.ReplaceRelation(pos, kind == WalRecordKind::kInsert
                                ? old.Union(change)
                                : old.Difference(change));
  std::vector<WorldOverlay> overlays;
  overlays.reserve(kb.size());
  for (const WorldOverlay& overlay : kb.overlays()) {
    std::vector<RelationDelta> deltas = overlay.deltas();
    for (RelationDelta& d : deltas) {
      if (d.pos != pos) continue;
      d.adds = d.adds.Difference(change);
      d.dels = d.dels.Difference(change);
    }
    overlays.push_back(WorldOverlay::FromDeltas(std::move(deltas)));
  }
  // FromBaseAndOverlays re-canonicalizes: a delete can collapse worlds that
  // now coincide, exactly the possible-worlds semantics.
  return Knowledgebase::FromBaseAndOverlays(
      std::make_shared<const Database>(std::move(base)), std::move(overlays));
}

}  // namespace

std::string CheckpointFileName(uint64_t lsn) {
  return "checkpoint-" + std::to_string(lsn);
}

std::string WalFileName(uint64_t lsn) { return "wal-" + std::to_string(lsn); }

std::optional<uint64_t> ParseStoreLsnSuffix(std::string_view name,
                                            std::string_view prefix) {
  if (name.size() <= prefix.size() + 1 ||
      name.substr(0, prefix.size()) != prefix || name[prefix.size()] != '-') {
    return std::nullopt;
  }
  std::string_view digits = name.substr(prefix.size() + 1);
  uint64_t lsn = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    if (lsn > (UINT64_MAX - 9) / 10) return std::nullopt;
    lsn = lsn * 10 + static_cast<uint64_t>(c - '0');
  }
  return lsn;
}

StatusOr<Knowledgebase> ApplyWalRecord(Engine& engine, const WalRecord& record,
                                       const Knowledgebase& kb) {
  switch (record.kind) {
    case WalRecordKind::kTransform:
      return engine.Apply(record.payload, kb);
    case WalRecordKind::kInsert:
    case WalRecordKind::kDelete:
      return ApplyTupleDelta(kb, record.kind, record.payload);
  }
  return Status::Internal("unreachable wal record kind");
}

StatusOr<RecoveredStore> RecoverStore(Env* env, const std::string& dir,
                                      Engine& engine) {
  KBT_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  std::vector<uint64_t> checkpoint_lsns;
  for (const std::string& name : names) {
    if (auto lsn = ParseStoreLsnSuffix(name, "checkpoint")) {
      checkpoint_lsns.push_back(*lsn);
    }
  }
  if (checkpoint_lsns.empty()) {
    return Status::NotFound("no checkpoint in store directory " + dir);
  }
  std::sort(checkpoint_lsns.rbegin(), checkpoint_lsns.rend());

  RecoveredStore recovered;
  bool have_checkpoint = false;
  std::string first_error;
  for (uint64_t lsn : checkpoint_lsns) {
    StatusOr<CheckpointContents> contents =
        ReadCheckpoint(env, dir + "/" + CheckpointFileName(lsn));
    if (contents.ok()) {
      if (contents->lsn != lsn) {
        // The name and header disagree — treat like any other corruption.
        if (first_error.empty()) first_error = "checkpoint lsn mismatch";
        continue;
      }
      recovered.kb = std::move(contents->kb);
      recovered.checkpoint_lsn = lsn;
      have_checkpoint = true;
      break;
    }
    if (first_error.empty()) first_error = contents.status().message();
  }
  if (!have_checkpoint) {
    return Status::DataLoss("no valid checkpoint in " + dir + " (" +
                            first_error + ")");
  }

  const std::string wal_path =
      dir + "/" + WalFileName(recovered.checkpoint_lsn);
  StatusOr<std::string> wal_bytes = env->ReadFile(wal_path);
  if (!wal_bytes.ok()) {
    if (wal_bytes.status().code() == StatusCode::kNotFound) {
      // Crash between checkpoint and the creation of its log: the checkpoint
      // is the whole committed state.
      recovered.lsn = recovered.checkpoint_lsn;
      return recovered;
    }
    return wal_bytes.status();
  }
  recovered.wal_exists = true;
  recovered.wal_file_size = wal_bytes->size();

  if (wal_bytes->size() < kWalHeaderSize) {
    // Empty or torn mid-header-append: no record was ever committed to this
    // log. The caller truncates to zero and reopens it as a fresh file.
    recovered.wal_valid_bytes = 0;
    recovered.lsn = recovered.checkpoint_lsn;
    return recovered;
  }
  KBT_ASSIGN_OR_RETURN(WalContents contents, ReadWal(*wal_bytes));
  if (contents.start_lsn != recovered.checkpoint_lsn) {
    return Status::DataLoss("wal start lsn disagrees with checkpoint lsn");
  }
  recovered.wal_valid_bytes = contents.valid_bytes;
  for (const WalRecord& record : contents.records) {
    KBT_ASSIGN_OR_RETURN(recovered.kb,
                         ApplyWalRecord(engine, record, recovered.kb));
  }
  recovered.lsn = recovered.checkpoint_lsn + contents.records.size();
  return recovered;
}

}  // namespace kbt::store
