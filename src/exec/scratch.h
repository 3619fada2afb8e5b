#ifndef KBT_EXEC_SCRATCH_H_
#define KBT_EXEC_SCRATCH_H_

/// \file
/// Per-worker world scratch for the τ fan-out.
///
/// The μ/SAT enumerator used to allocate ~15 member vectors plus a model
/// materializer per world; on small worlds that constant factor dominated the
/// actual solving. A WorldScratch owns those buffers and is pooled per worker
/// id — exactly like the per-worker sat::Solver pools of exec/pool — so one
/// world's enumeration borrows warm, already-sized storage and the next world
/// on the same worker reuses it. A scratch is owned by one worker at a time;
/// nothing here is thread-safe or meant to be shared.
///
/// The element types are plain ints / bytes (atom ids, sat::Var and sat::Lit
/// are all int typedefs), keeping exec/ free of core/ and sat/ dependencies.
/// Strategy-private cached state with a real type — the μ/SAT enumerator's
/// ModelMaterializer — parks behind the type-erased Attachment slot.

#include <cstdint>
#include <memory>
#include <vector>

namespace kbt::exec {

/// Reusable per-world buffers, keyed by worker id by the τ executor. μ borrows
/// one exclusively for the duration of a world's update (MuExecContext).
struct WorldScratch {
  /// Base class for strategy-owned cached state exec/ must not know the type
  /// of. Owners downcast (dynamic_cast) and replace the slot when the type is
  /// not theirs.
  struct Attachment {
    virtual ~Attachment() = default;
  };

  // --- μ/SAT enumerator per-world tables (sized per grounding). ---
  std::vector<int> old_atoms;          ///< Mentioned atom ids over σ(db).
  std::vector<int> new_atoms;          ///< Mentioned atom ids outside σ(db).
  std::vector<int> atom_var;           ///< Atom id → sat::Var (dense, -1 unset).
  std::vector<int8_t> default_value;   ///< Atom id → default-world value.
  std::vector<int8_t> value;           ///< Atom id → current model snapshot.
  std::vector<int8_t> node_value;      ///< Circuit-evaluation scratch.

  // --- μ/SAT descend-and-block loop scratch. ---
  std::vector<int> deviating;          ///< Atoms deviating from the default.
  std::vector<int> clause_lits;        ///< Clause under construction (sat::Lit).
  std::vector<int> core_lits;          ///< Blocking-core literals (sat::Lit).
  std::vector<int> assumption_lits;    ///< Assumption vector (sat::Lit).
  std::vector<int> retired_acts;       ///< Activation vars awaiting retirement.

  // --- τ's world keys (core/tau.cc, pass A). ---
  /// Each world's flipped key bits, one entry per delta tuple; kept on the
  /// calling thread's scratch, so a lent one keeps the room across calls.
  std::vector<uint32_t> key_flips;

  /// Strategy-private slot (the μ/SAT enumerator's ModelMaterializer lives
  /// here so its group/merge buffers survive across worlds too).
  std::unique_ptr<Attachment> attachment;
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_SCRATCH_H_
