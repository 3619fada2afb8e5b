#ifndef KBT_CORE_MU_INTERNAL_H_
#define KBT_CORE_MU_INTERNAL_H_

/// \file
/// Internal interfaces between the μ dispatcher and its strategies. Not part of the
/// public API.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/mu.h"
#include "core/universe.h"
#include "datalog/ast.h"
#include "logic/circuit.h"
#include "logic/ground_atom.h"
#include "logic/grounder.h"
#include "rel/overlay.h"
#include "rel/world_domains.h"

namespace kbt::exec {
struct CachedGrounding;
struct FrozenCnf;
class CnfCache;
class GroundingCache;
struct WorldScratch;
}  // namespace kbt::exec

namespace kbt::sat {
class Solver;
}  // namespace kbt::sat

namespace kbt::datalog {
struct MaskedHead;
}  // namespace kbt::datalog

namespace kbt::internal {

struct DatalogPlan;
struct DefinitionalPlan;

/// kAuto strategy dispatch, resolved once per τ call. PlanDatalog and
/// PlanDefinitional read the database only through its schema, and all members
/// of a knowledgebase share one schema — so τ plans against an empty database
/// over that schema, and every world reuses the result instead of re-deriving
/// it. Built by PlanTauStrategies; only consulted when MuOptions::strategy ==
/// kAuto.
struct TauStrategyPlan {
  /// IsGround(φ): try the Theorem 4.7 reference path first (its
  /// kResourceExhausted fallback to SAT stays per class — it depends on the
  /// grounding size, not on the plan).
  bool sentence_is_ground = false;
  /// Engaged when the Datalog fast path applies to (φ, schema).
  std::shared_ptr<const DatalogPlan> datalog;
  /// Engaged when the definitional fast path applies to (φ, schema).
  std::shared_ptr<const DefinitionalPlan> definitional;
};

/// Resources the τ executor threads through μ: caches shared by all worlds of
/// one τ call (grounding and frozen-CNF-prefix, both keyed by active domain),
/// a per-worker solver that is Reset/forked and reused across class leaders
/// instead of constructed per call, a per-worker WorldScratch holding the
/// enumerator's buffers, and the once-per-call strategy plan. All are
/// optional; plain Mu() passes none. The struct is copied freely — it only
/// borrows.
struct MuExecContext {
  exec::GroundingCache* ground_cache = nullptr;
  exec::CnfCache* cnf_cache = nullptr;
  sat::Solver* solver = nullptr;
  exec::WorldScratch* scratch = nullptr;
  const TauStrategyPlan* plan = nullptr;
  /// σ(kb) ∪ σ(φ), fixed across a τ call (one shared input schema) and
  /// validated once by τ's probe context. With a PreparedPart, PrepareMu
  /// builds the leader's context on it instead of re-deriving it.
  const Schema* extended_schema = nullptr;
};

/// Resolves the kAuto dispatch of `sentence` against the schema of `probe`
/// (the planners only read the schema, so τ passes an empty database over
/// the kb's).
StatusOr<TauStrategyPlan> PlanTauStrategies(const Formula& sentence,
                                            const Database& probe);

/// kAuto's strategy under `plan`, cheapest applicable first: kReference on a
/// ground sentence (Theorem 4.7; PreparedMu::auto_fallback takes an
/// over-budget run on through the rest of the plan), else kDatalog,
/// kDefinitional or kSat. PrepareMu resolves each plain μ call with it, and τ
/// its whole call's route.
MuStrategy ResolveAuto(const TauStrategyPlan& plan);

/// What a grounded strategy (SAT or reference) reads of its grounding step:
/// the grounding — through the CnfCache's frozen prefix on the SAT route when
/// the executor has one — the part of it μ runs on, and the world's value on
/// every atom that part mentions.
struct MuGrounding {
  std::shared_ptr<const exec::CachedGrounding> grounding;
  /// Engaged on the SAT route with an executor CnfCache, for a whole root
  /// that is one component.
  std::shared_ptr<const exec::FrozenCnf> frozen;
  /// The part μ runs on: the grounding's root and `mentioned`, or one
  /// component's root and atoms. `atoms` borrows from `grounding`.
  int root = 0;
  const std::vector<int>* atoms = nullptr;
  /// Bit k (word k / 64, bit k % 64) is set iff ctx.extended_base holds the
  /// k-th atom of `atoms`. Atoms of relations new to σ(db) are never set.
  /// These are the strategies' default values.
  std::vector<uint64_t> bits;

  bool Bit(size_t k) const { return ((bits[k / 64] >> (k % 64)) & 1) != 0; }
  /// True when μ runs on the grounding's whole root.
  bool whole() const;
};

/// The grounding lookup of the SAT (`sat_route`) or reference strategy over
/// `domain`: the CnfCache on the SAT route when the executor has one, else
/// the GroundingCache, else an uncached grounding. Sets out->grounding, and
/// out->frozen when the lookup went through the CnfCache and the grounding
/// is one part. Plain μ makes this lookup once; τ once per call for domain0
/// and once per grounded world whose domain differs.
Status LookUpGrounding(const Formula& sentence,
                       const std::vector<Value>& domain,
                       const MuOptions& options, const MuExecContext& exec,
                       bool sat_route, MuGrounding* out);

/// The values of `extended_base` (a database over σ(kb) ∪ σ(φ)) on g's
/// mentioned atoms, one bit each: bit k for the k-th atom of g.mentioned
/// (MuGrounding::bits), or with `key_layout` bit g.key_bit[atom], the layout
/// τ keys worlds in. Atoms of relations new to σ(kb) are never set.
StatusOr<std::vector<uint64_t>> AtomBits(const exec::CachedGrounding& g,
                                         const Database& extended_base,
                                         bool key_layout);

/// A μ call split where its strategy starts. PrepareMu honors an expired
/// token, builds the update context, resolves the strategy (kAuto through the
/// executor's plan, or one made for this call) and, on the grounded routes —
/// SAT, reference and kAuto's resolution to them — makes the world's one
/// cache lookup for the grounding and reads the world's bits over its whole
/// root. RunPreparedMu then runs the strategy on exactly these pieces. τ
/// prepares only its class leaders, in pass C, from a PreparedPart: it keys
/// its worlds without preparing them, on (B, component, the bits on that
/// component), since on a grounded route each component's minimal models
/// depend on W through nothing else (docs/exec.md, "World classes").
struct PreparedMu {
  UpdateContext ctx;
  /// kReference, kSat, kDatalog or kDefinitional — never kAuto. kAuto on a
  /// ground sentence resolves to kReference with `auto_fallback`: when the
  /// reference enumeration is over budget (kResourceExhausted) the run goes
  /// on through `datalog`, `definitional` and finally SAT, as kAuto does.
  MuStrategy strategy = MuStrategy::kAuto;
  bool auto_fallback = false;
  std::shared_ptr<const DatalogPlan> datalog;
  std::shared_ptr<const DefinitionalPlan> definitional;
  /// Engaged (grounding non-null) iff `strategy` is kSat or kReference.
  MuGrounding ground;
};

/// What τ's pass A derived for a class leader from its overlay, when pass C
/// prepares the leader's world: its active domain B and the part of its
/// grounding the class covers, with the leader's bits on that part. PrepareMu
/// then neither rescans the world for B nor repeats the grounding lookup.
struct PreparedPart {
  const std::vector<Value>* domain = nullptr;
  const MuGrounding* ground = nullptr;
};

StatusOr<PreparedMu> PrepareMu(const Formula& sentence, const Database& db,
                               const MuOptions& options,
                               const MuExecContext& exec,
                               const PreparedPart* known = nullptr);

/// Runs the prepared strategy for `db` (the world PrepareMu saw). Mu() is
/// PrepareMu then RunPreparedMu with an empty context. kAuto's fallback from
/// an over-budget reference μ goes on through the datalog and definitional
/// plans only for a whole root: those evaluate the whole sentence, so a
/// component falls back to SAT on the component.
StatusOr<Knowledgebase> RunPreparedMu(const Formula& sentence,
                                      const Database& db,
                                      const PreparedMu& prep,
                                      const MuOptions& options, MuStats* stats,
                                      const MuExecContext& exec);

/// Reference (specification) enumeration over a prepared grounding. Fails
/// with kResourceExhausted when the part it runs on mentions more than
/// options.max_reference_atoms ground atoms.
StatusOr<Knowledgebase> MuReference(const Database& db, const UpdateContext& ctx,
                                    const MuGrounding& ground,
                                    const MuOptions& options, MuStats* stats);

/// CDCL-based minimal-model enumeration over a prepared grounding.
StatusOr<Knowledgebase> MuSat(const Database& db, const UpdateContext& ctx,
                              const MuGrounding& ground,
                              const MuOptions& options, MuStats* stats,
                              const MuExecContext& exec);

/// Datalog fast path plan: the extracted program (all head predicates new w.r.t.
/// σ(db)). nullopt when φ is not of this shape.
struct DatalogPlan {
  datalog::Program program;
};
StatusOr<std::optional<DatalogPlan>> PlanDatalog(const Formula& sentence,
                                                 const Database& db);
/// MuStrategy::kDatalog's plan: PlanDatalog's, or kUnsupported when φ is not
/// of its shape. Reads only db's schema.
StatusOr<std::shared_ptr<const DatalogPlan>> RequireDatalogPlan(
    const Formula& sentence, const Database& db);
StatusOr<Knowledgebase> MuDatalog(const DatalogPlan& plan, const Database& db,
                                  const UpdateContext& ctx, MuStats* stats);

/// τ's Datalog route (docs/exec.md, "Datalog over 64-world blocks"): the
/// least models of the worlds [begin, begin + out.size()) of `kb`, at most
/// 64, from one masked fixpoint (datalog::EvaluateMasked) over the block's
/// facts. out[w] becomes world begin + w's one minimal model as an overlay
/// of kb's base extended to `extended_schema` (σ(kb) ∪ σ(φ)): the world's
/// input overlay followed by one pure-add delta per derived head relation.
/// No world is materialized. Fails with kDeadlineExceeded when
/// options.cancel has expired before the block or between its rounds. Adds
/// the block's counters to `stats`.
Status MuDatalogBlock(const DatalogPlan& plan, const Knowledgebase& kb,
                      size_t begin, const Schema& extended_schema,
                      const MuOptions& options, MuStats* stats,
                      std::span<WorldOverlay> out);

/// The output of both block routes (Datalog and definitional): out[w]
/// becomes world begin + w of `kb` as an overlay of kb's base extended to
/// `extended_schema`, its input overlay followed by one pure-add delta per
/// head of `heads` holding the head's tuples whose mask has bit w. Heads are
/// new to σ(kb), so their positions follow every σ(kb) position and each
/// overlay is canonical against the extended base by construction. Worlds
/// whose bits over a head's tuples are equal hold one relation, built once
/// for the block; worlds holding every tuple share the head's own.
Status EmitBlock(const Knowledgebase& kb, size_t begin,
                 const Schema& extended_schema,
                 const std::vector<datalog::MaskedHead>& heads,
                 std::span<WorldOverlay> out);

/// Definitional fast path plan: conjuncts ∀x̄ (ψ → H(x̄')) / ∀x̄ (ψ ↔ H(x̄)), H new,
/// bodies over σ(db). nullopt when φ is not of this shape.
struct DefinitionalPlan {
  struct Definition {
    Symbol head;
    std::vector<Symbol> head_vars;  ///< Distinct head argument variables.
    std::vector<Symbol> all_vars;   ///< Universally quantified variables, in order.
    Formula body;
    bool iff = false;
  };
  std::vector<Definition> definitions;
};
StatusOr<std::optional<DefinitionalPlan>> PlanDefinitional(const Formula& sentence,
                                                           const Database& db);
/// MuStrategy::kDefinitional's plan: PlanDefinitional's, or kUnsupported when
/// φ is not of its shape. Reads only db's schema.
StatusOr<std::shared_ptr<const DefinitionalPlan>> RequireDefinitionalPlan(
    const Formula& sentence, const Database& db);
/// One world's μ: each head's content is the union over its definitions of
/// the body's answers over db, by EvaluateQuery. Plain Mu() runs it, and so
/// does testutil::OracleTau, world by world.
StatusOr<Knowledgebase> MuDefinitional(const DefinitionalPlan& plan,
                                       const Database& db, const UpdateContext& ctx,
                                       const MuOptions& options, MuStats* stats);

/// τ's definitional route (docs/exec.md, "Definitional over 64-world
/// blocks"): the minimal models of the worlds [begin, begin + out.size()) of
/// `kb`, at most 64, from one masked evaluation of each body
/// (EvaluateQueryMasked) over the block. Quantifiers range over each world's
/// own domain, taken from `domains` (built from kb's base and φ's
/// constants). out[w] becomes world begin + w's one minimal model as an
/// overlay of kb's base extended to `extended_schema` (σ(kb) ∪ σ(φ)): the
/// world's input overlay followed by one pure-add delta per head. No world
/// is materialized. Fails with kDeadlineExceeded when options.cancel has
/// expired before the block. Adds the block's counters to `stats`: per
/// world one minimal model and one candidate per definition, as plain μ
/// counts them.
Status MuDefinitionalBlock(const DefinitionalPlan& plan,
                           const Knowledgebase& kb,
                           const WorldDomains& domains, size_t begin,
                           const Schema& extended_schema,
                           const MuOptions& options, MuStats* stats,
                           std::span<WorldOverlay> out);

/// Shared helper: true when the ground atom's relation belongs to σ(db) ("old").
inline bool IsOldAtom(const GroundAtom& atom, const Database& db) {
  return db.schema().Contains(atom.relation);
}

/// Shared helper: turns an (atom id → truth value) assignment into a database over
/// ctx.schema, starting from ctx.extended_base and deviating only on the listed
/// atoms. The specification-shaped path: per call it groups deviations in a map
/// and rebuilds each touched relation through Union/Difference. Kept as the
/// reference the two overlay materializers below are property-tested against
/// (materialize_test); μ itself emits models only as overlays.
StatusOr<Database> MaterializeModel(
    const UpdateContext& ctx, const AtomIndex& atoms,
    const std::vector<int>& mentioned_atom_ids,
    const std::function<bool(int)>& atom_value);

/// MaterializeModel's overlay twin: the same assignment expressed as a
/// canonical WorldOverlay against ctx.extended_base (adds = atoms wanted true
/// but absent, dels = atoms wanted false but present) instead of a flattened
/// database — what the μ strategies hand the τ merge so no model is ever
/// materialized flat. ApplyTo(ctx.extended_base) equals MaterializeModel's
/// result (property-tested).
StatusOr<WorldOverlay> MaterializeOverlayModel(
    const UpdateContext& ctx, const AtomIndex& atoms,
    const std::vector<int>& mentioned_atom_ids,
    const std::function<bool(int)>& atom_value);

/// Delta-encoded model materialization for enumeration loops that build many
/// models against one base. Construction (once per μ call — lazily, on the
/// second enumerated model, since a single-model run never amortizes it)
/// groups the mentioned atoms by relation, sorts each group in tuple order and
/// precomputes each atom's presence in ctx.extended_base; MaterializeOverlay
/// (once per enumerated model) then emits each touched relation's adds and
/// dels already sorted — no per-model map and no membership probes. All
/// storage is flat, so a default-constructed materializer parked in a
/// per-worker WorldScratch is Rebuilt in place world after world with warm
/// buffers. Borrows the ctx and atoms passed to Rebuild; both must outlive the
/// next Rebuild.
class ModelMaterializer {
 public:
  ModelMaterializer() = default;

  /// (Re)builds the precomputation for a new (ctx, atoms, mentioned) triple,
  /// reusing this object's buffers. Fails with kNotFound when a mentioned
  /// atom's relation is not in ctx.schema (the same check MaterializeModel
  /// performs per call); the materializer is unusable until the next
  /// successful Rebuild.
  Status Rebuild(const UpdateContext& ctx, const AtomIndex& atoms,
                 const std::vector<int>& mentioned_atom_ids);

  /// Fresh-object convenience (tests and one-shot callers).
  static StatusOr<ModelMaterializer> Make(
      const UpdateContext& ctx, const AtomIndex& atoms,
      const std::vector<int>& mentioned_atom_ids);

  /// The model in which every mentioned atom id holds iff `atom_value(id)`,
  /// all other facts matching ctx.extended_base, as a canonical overlay
  /// against ctx.extended_base: one RelationDelta per deviating relation,
  /// add/delete lists emitted directly from the precomputed sorted groups (no
  /// base merge at all, so the per-model cost is O(mentioned atoms)).
  /// Equivalent to MaterializeOverlayModel over the same inputs, and its
  /// ApplyTo(ctx.extended_base) to MaterializeModel (property-tested).
  StatusOr<WorldOverlay> MaterializeOverlay(
      const std::function<bool(int)>& atom_value) const;

 private:
  /// One mentioned atom: its id, a view of its ground tuple (borrowed from the
  /// AtomIndex) and whether the base relation already contains it.
  struct AtomEntry {
    int id;
    TupleView tuple;
    bool present;
  };
  /// All mentioned atoms of one relation: entries_[begin, end), sorted by
  /// tuple so the per-model add/remove lists come out sorted for free.
  struct Group {
    size_t schema_pos;
    uint32_t begin;
    uint32_t end;
  };

  const UpdateContext* ctx_ = nullptr;
  /// Flat entry store + group runs over it (flat so Rebuild reuses capacity).
  std::vector<AtomEntry> entries_;
  std::vector<Group> groups_;
  /// Scratch for Rebuild's (schema position, entry) sort.
  std::vector<std::pair<size_t, AtomEntry>> keyed_;
  /// Scratch for MaterializeOverlay (adds/removes of the current group);
  /// mutable so it stays const for callers — a materializer is used by one
  /// world's enumeration thread, never shared.
  mutable std::vector<TupleView> adds_;
  mutable std::vector<TupleView> removes_;
};

}  // namespace kbt::internal

#endif  // KBT_CORE_MU_INTERNAL_H_
