#ifndef KBT_CORE_TAU_H_
#define KBT_CORE_TAU_H_

/// \file
/// τ_φ(kb) — eq. (10): the update operator. "Inserts" the sentence φ into a
/// knowledgebase by replacing each member db with the φ-models closest to it,
/// μ(φ, db), and unioning the results. Theorem 2.1 shows τ satisfies the
/// Katsuno–Mendelzon update postulates; tests/tau_postulates_test.cc re-verifies
/// them on randomized inputs against this implementation.
///
/// The member updates are independent, so τ runs on the exec/ subsystem: each
/// pass's worlds or classes are split into chunks that the calling thread and
/// the pool's helpers claim from one index, each worker (the caller is worker
/// 0) owns a reusable Solver, worlds with identical active domains share
/// one grounded circuit through a domain-keyed cache, and μ runs once per
/// world class: per atom-disjoint component of that circuit and per pattern
/// of the worlds' values on the component's atoms (docs/exec.md). τ keys each
/// world from the shared base plus its overlay — its active domain from the
/// base's value counts, its values from the base's with its delta atoms
/// flipped — and materializes a world only to run μ for a class leader.
/// Worlds whose domain is the base's share one grounding lookup per call.
/// Datalog and definitional μ instead run once per block of 64 worlds, over
/// world masks, and materialize no world. Outputs arrive grouped by input
/// world; when μ leaves σ(kb) alone, outputs of different worlds are already
/// in input order, and the merge (Knowledgebase::FromWorldOutputs) orders
/// only each world's own.
/// threads = 1 (the default) is the plain sequential loop; every thread count
/// produces the same canonical Knowledgebase bit for bit
/// (tests/tau_parallel_test.cc).

#include "base/status.h"
#include "core/mu.h"
#include "rel/knowledgebase.h"

namespace kbt::exec {
class CnfCache;
class GroundingCache;
class ThreadPool;
struct WorldScratch;
}  // namespace kbt::exec

namespace kbt::sat {
class Solver;
}  // namespace kbt::sat

namespace kbt {

struct TauOptions {
  /// Options for the μ computations. Cancellation rides here too: set
  /// `mu.cancel` (and optionally `mu.sat_conflict_budget`) and every μ
  /// honors it — an expired token fails the τ call with kDeadlineExceeded
  /// before the next world is keyed, class runs or block starts, and
  /// mid-search inside the SAT descent.
  MuOptions mu;
  /// Width of the world fan-out: the calling thread plus threads − 1
  /// helpers. 1 = sequential in the calling thread; 0 = one per hardware
  /// thread.
  size_t threads = 1;
  /// Borrowed persistent worker pool. When set (and the resolved thread count
  /// is > 1), τ fans out on this pool instead of spawning one per call — the
  /// serving-loop configuration Engine sets up; see EngineOptions. Must outlive
  /// the call; per-call worker state is still τ's own.
  exec::ThreadPool* pool = nullptr;
  /// Borrowed external caches (serve/cache_bank.h). When set, τ reads and
  /// fills these instead of its per-call locals, so *consecutive calls* with
  /// the same sentence share groundings and frozen CNF prefixes — the serving
  /// batcher's ride on the caches. Both key by active domain alone: a cache
  /// must only ever see one sentence, which the cache bank enforces by keying
  /// entries on canonical sentence text. With an external cnf_cache the
  /// prefix/fork path is taken even for singleton kbs (amortized across calls
  /// rather than across worlds). TauStats report this call's delta only.
  exec::GroundingCache* ground_cache = nullptr;
  exec::CnfCache* cnf_cache = nullptr;
  /// Borrowed session-pinned solver + scratch, used by the sequential path
  /// (resolved thread count 1, the serving read shape): consecutive τ calls
  /// keep the solver's arena capacity, the enumerator's buffers and pass A's
  /// flip array warm instead of reallocating per call. Ignored by the
  /// parallel path, whose workers own pooled solvers. Must outlive the call;
  /// a solver/scratch pair belongs to one session thread at a time.
  sat::Solver* solver = nullptr;
  exec::WorldScratch* scratch = nullptr;
};

/// One τ call's counters. A stats object passed to several calls (one per
/// step of a chain, as NestedCounterfactual does) adds up the work
/// counters — `mu`, the cache counters, `shared_worlds` and `mu_classes` —
/// across the calls, while `input_databases`, `output_databases` and
/// `threads_used` describe the last call alone.
struct TauStats {
  /// Sizes before and after.
  size_t input_databases = 0;
  size_t output_databases = 0;
  /// Aggregated μ counters, merged in an order independent of execution
  /// interleaving: block by block on the Datalog and definitional routes
  /// (one minimal model per world; `datalog_rounds` counts each block's
  /// rounds, see MuStats), else class by class.
  MuStats mu;
  /// Worker threads actually used (1 for the sequential path).
  size_t threads_used = 1;
  /// Domain-keyed grounding cache counters (0/0 when no world took a
  /// grounding strategy). They count lookups made, not worlds: on a
  /// grounded route τ makes one lookup per call for the base's domain
  /// (domain0, if any world has it) plus one per world whose domain
  /// differs, at every width.
  uint64_t ground_cache_hits = 0;
  uint64_t ground_cache_misses = 0;
  /// Frozen-CNF-prefix cache counters (0/0 for a singleton kb without an
  /// external cnf_cache, or when no world took the SAT strategy), counting
  /// the same lookups on the SAT route. A hit is one lookup's Tseitin
  /// encoding replaced by the cached frozen prefix.
  uint64_t cnf_cache_hits = 0;
  uint64_t cnf_cache_misses = 0;
  /// Worlds that ran no μ of their own: on every component of the grounding,
  /// a lower-indexed world with the same active domain and the same values
  /// on the component's atoms ran it (SAT and reference routes only;
  /// docs/exec.md). `mu` counts only work actually done.
  uint64_t shared_worlds = 0;
  /// μ computations run on the SAT and reference routes: one per distinct
  /// (active domain, component, values on the component's atoms).
  uint64_t mu_classes = 0;
};

/// Computes τ_φ(kb). All members of `kb` share a schema, so every μ call works over
/// the same extended schema s = σ(kb) ∪ σ(φ) and the union is well-formed. An empty
/// kb stays empty (over s).
StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const TauOptions& options, TauStats* stats = nullptr);

/// Sequential-default convenience overload (μ options only).
StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const MuOptions& options = MuOptions(),
                            TauStats* stats = nullptr);

}  // namespace kbt

#endif  // KBT_CORE_TAU_H_
