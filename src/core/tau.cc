#include "core/tau.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/hash.h"
#include "core/mu_internal.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/once_cache.h"
#include "exec/pool.h"
#include "exec/scratch.h"
#include "logic/analysis.h"
#include "rel/overlay.h"
#include "sat/solver.h"

namespace kbt {

namespace {

/// A world class of one τ call: the worlds sharing the active domain B and
/// their values on every atom the grounding over B mentions. On the grounded
/// routes μ_φ(W) is a function of the class, so each class runs μ once.
struct WorldClassKey {
  std::vector<Value> domain;
  std::vector<uint64_t> bits;

  friend bool operator==(const WorldClassKey& a, const WorldClassKey& b) {
    return a.domain == b.domain && a.bits == b.bits;
  }
};

struct WorldClassKeyHash {
  size_t operator()(const WorldClassKey& key) const {
    size_t seed = exec::DomainHash()(key.domain);
    for (uint64_t word : key.bits) seed = HashCombine(seed, word);
    return static_cast<size_t>(Mix64(seed));
  }
};

/// One μ computation: the result μ returned, anchored at world `anchor`
/// extended to σ(kb) ∪ σ(φ), and whether that anchor is the anchor world's
/// input overlay applied to the shared extended input base (`rebased`). A
/// world answered from its class holds its leader's result.
struct WorldResult {
  Knowledgebase mu;
  size_t anchor = 0;
  bool rebased = false;
  MuStrategy used = MuStrategy::kAuto;
};

/// Merges per-world outcomes into the final kb and stats. On failure the
/// lowest-indexed recorded error wins; with threads=1 that is exactly the old
/// sequential first-failure behavior, with threads>1 it is the first failure
/// the executor observed (later worlds are skipped, not run-and-discarded).
///
/// The merge never flattens: every μ result arrives as overlays against its
/// anchor world extended to σ(kb) ∪ σ(φ), which is itself an overlay of the
/// shared extended input base (schema union appends declarations, so input
/// overlay positions survive extension unchanged). Composing each world's
/// input overlay with its result's overlays yields each output world as an
/// overlay of one shared base, and a single canonicalization over those
/// overlays — O(worlds × delta) — replaces the old flat UnionAll. A class
/// member composes its own input overlay with its leader's μ overlays: they
/// touch only mentioned atoms, on which the member agrees with the leader, so
/// they are canonical against the member's world too.
StatusOr<Knowledgebase> MergeTauResults(
    const Knowledgebase& kb, const Schema& extended_schema,
    std::shared_ptr<const Database> ext_base, std::vector<Status> statuses,
    std::vector<std::shared_ptr<const WorldResult>> results,
    std::vector<MuStats> world_stats, const Knowledgebase::ParallelMap* pmap,
    TauStats* out) {
  for (const Status& s : statuses) KBT_RETURN_IF_ERROR(s);
  for (const MuStats& s : world_stats) out->mu.MergeFrom(s);

  size_t total = 0;
  for (const auto& r : results) total += r->mu.size();
  std::vector<WorldOverlay> merged;
  merged.reserve(total);
  for (size_t i = 0; i < results.size(); ++i) {
    const WorldResult& r = *results[i];
    if (r.mu.empty()) continue;
    if (r.mu.schema() != extended_schema) {
      return Status::InvalidArgument("knowledgebase union: schema mismatch");
    }
    const WorldOverlay& input_ov = kb.overlays()[i];
    if (r.rebased) {
      for (const WorldOverlay& ov : r.mu.overlays()) {
        merged.push_back(WorldOverlay::Compose(input_ov, ov));
      }
    } else if (r.anchor == i) {
      // Any other anchor of a world's own result falls back to a diff.
      for (size_t j = 0; j < r.mu.size(); ++j) {
        merged.push_back(WorldOverlay::FromDiff(*ext_base, r.mu.World(j)));
      }
    } else {
      return Status::Internal("world class result not anchored at its leader");
    }
  }
  if (merged.empty()) {
    out->output_databases = 0;
    return Knowledgebase(extended_schema);
  }
  KBT_ASSIGN_OR_RETURN(
      Knowledgebase out_kb,
      Knowledgebase::FromBaseAndOverlays(std::move(ext_base), std::move(merged),
                                         pmap));
  out->output_databases = out_kb.size();
  return out_kb;
}

}  // namespace

StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const TauOptions& options, TauStats* stats) {
  TauStats local;
  TauStats* out = stats != nullptr ? stats : &local;
  out->input_databases = kb.size();

  if (kb.empty()) {
    // Preserve the extended schema so downstream steps see σ(kb) ∪ σ(φ).
    Database probe(kb.schema());
    KBT_ASSIGN_OR_RETURN(UpdateContext ctx, MakeUpdateContext(sentence, probe));
    out->output_databases = 0;
    return Knowledgebase(ctx.schema);
  }

  // The extended schema σ(kb) ∪ σ(φ) depends only on the shared input schema,
  // so one probe context resolves it for the merge step up front.
  Schema extended_schema;
  {
    Database probe(kb.schema());
    KBT_ASSIGN_OR_RETURN(UpdateContext ctx, MakeUpdateContext(sentence, probe));
    extended_schema = std::move(ctx.schema);
  }

  // One cache pair per τ call — or the caller's persistent pair (a serving
  // loop re-querying one sentence across snapshots): the sentence is fixed, so
  // the key is the active domain alone. Worlds with equal domains ground once
  // (GroundingCache) and, on the SAT path, Tseitin-encode once (CnfCache —
  // per-world solvers fork from the frozen prefix).
  exec::GroundingCache local_ground_cache;
  exec::CnfCache local_cnf_cache;
  exec::GroundingCache* cache = options.ground_cache != nullptr
                                    ? options.ground_cache
                                    : &local_ground_cache;
  exec::CnfCache* cnf_cache =
      options.cnf_cache != nullptr ? options.cnf_cache : &local_cnf_cache;
  // Stats report this call's contribution: external caches arrive warm (and
  // may be advanced concurrently by sibling calls), so snapshot and diff.
  exec::GroundingCache::Stats ground_stats_before = cache->stats();
  exec::CnfCache::Stats cnf_stats_before = cnf_cache->stats();
  internal::MuExecContext base_exec;
  // The probe context above validated (φ, schema); per-world update contexts
  // reuse its schema and φ's constants instead of re-deriving both per world.
  std::vector<Value> formula_constants = ConstantsOf(sentence);
  base_exec.extended_schema = &extended_schema;
  base_exec.formula_constants = &formula_constants;
  if (options.use_ground_cache) base_exec.ground_cache = cache;
  // Freezing and forking only pays for itself when a prefix is reused: a
  // singleton kb would encode once either way but add a snapshot copy, so the
  // prefix path needs at least two worlds — unless the cache outlives this
  // call, where the fork amortizes across calls instead.
  if (options.use_cnf_prefix &&
      (kb.size() > 1 || options.cnf_cache != nullptr)) {
    base_exec.cnf_cache = cnf_cache;
  }

  // Strategy planning depends only on (φ, schema) and all worlds share one
  // schema: resolve the kAuto dispatch once here instead of once per world.
  internal::TauStrategyPlan plan;
  if (options.mu.strategy == MuStrategy::kAuto) {
    Database first_world = kb.World(0);
    KBT_ASSIGN_OR_RETURN(plan, internal::PlanTauStrategies(sentence, first_world));
    base_exec.plan = &plan;
  }

  // The shared input base extended to σ(kb) ∪ σ(φ): every μ result is
  // checked against it once, by the world that computed it, and the merge
  // anchors the output at it.
  KBT_ASSIGN_OR_RETURN(Database extended, kb.base()->ExtendTo(extended_schema));
  auto ext_base = std::make_shared<const Database>(std::move(extended));

  std::vector<Status> statuses(kb.size());
  std::vector<std::shared_ptr<const WorldResult>> results(kb.size());
  std::vector<MuStats> world_stats(kb.size());

  // World classes (docs/exec.md): on the grounded routes each world keys
  // itself by (B, its bits on the mentioned atoms) once its grounding is in
  // hand, and the first world of a class computes μ for all of it, exactly
  // once. Datalog and definitional μ never ground, so they stay per world.
  exec::OnceCache<WorldClassKey, WorldResult, WorldClassKeyHash> classes;
  std::atomic<size_t> shared_worlds{0};

  // After the first failure no further world starts a μ computation — the
  // error is going to be returned anyway, so the remaining work would be
  // discarded.
  std::atomic<bool> failed{false};
  auto run_world = [&](size_t i, internal::MuExecContext exec) {
    if (failed.load(std::memory_order_relaxed)) return;
    // Graceful degradation: one world failing — by Status or by throwing —
    // lands in its own result slot and fails the call, never the process.
    // Sibling worlds already running complete normally.
    using Result = StatusOr<std::shared_ptr<const WorldResult>>;
    Result r = [&]() -> Result {
      try {
        // The world is materialized transiently from the shared base — a
        // copy-on-write overlay application, never a stored flat copy.
        Database world = kb.World(i);
        KBT_ASSIGN_OR_RETURN(
            internal::PreparedMu prep,
            internal::PrepareMu(sentence, world, options.mu, exec));
        auto compute = [&]() -> Result {
          KBT_ASSIGN_OR_RETURN(
              Knowledgebase mu,
              internal::RunPreparedMu(sentence, world, prep, options.mu,
                                      &world_stats[i], exec));
          bool rebased = mu.base() != nullptr &&
                         kb.overlays()[i].ApplyEquals(*ext_base, *mu.base());
          return std::make_shared<const WorldResult>(
              WorldResult{std::move(mu), i, rebased, world_stats[i].used});
        };
        if (!prep.grounded()) return compute();
        bool computed = false;
        KBT_ASSIGN_OR_RETURN(
            std::shared_ptr<const WorldResult> result,
            classes.GetOrCompute(
                WorldClassKey{prep.ctx.domain, prep.ground.bits}, [&] {
                  computed = true;
                  return compute();
                }));
        if (!computed) {
          // Answered by the class: no μ work was done for this world.
          world_stats[i].used = result->used;
          shared_worlds.fetch_add(1, std::memory_order_relaxed);
        }
        return result;
      } catch (const std::exception& e) {
        return Status::Internal(std::string("world task threw: ") + e.what());
      } catch (...) {
        return Status::Internal("world task threw a non-standard exception");
      }
    }();
    if (r.ok()) {
      results[i] = std::move(*r);
    } else {
      statuses[i] = r.status();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  size_t threads = options.threads != 0
                       ? options.threads
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, kb.size());

  // The pool outlives the per-world loop: the merge step reuses it to hash
  // result overlays in parallel during canonicalization.
  exec::ThreadPool* pool = nullptr;
  std::unique_ptr<exec::ThreadPool> own_pool;

  if (threads <= 1) {
    // Sequential path: same per-world calls, same merge — the parallel path is
    // bit-identical because results land in per-world slots either way. A
    // session-pinned solver/scratch (serving reads) replaces the per-call
    // locals so arena capacity and enumerator buffers stay warm across calls.
    sat::Solver local_solver;
    exec::WorldScratch local_scratch;
    internal::MuExecContext exec = base_exec;
    exec.solver = options.solver != nullptr ? options.solver : &local_solver;
    exec.scratch = options.scratch != nullptr ? options.scratch : &local_scratch;
    for (size_t i = 0; i < kb.size() && !failed.load(std::memory_order_relaxed);
         ++i) {
      run_world(i, exec);
    }
    out->threads_used = 1;
  } else {
    // Each worker owns a Solver reused (via Reset or a frozen-prefix fork)
    // across every world it executes — the PR 2 incremental machinery
    // instantiated per thread — plus a WorldScratch holding the enumerator's
    // per-world tables, so small worlds stop paying per-world allocation. The
    // pool is the caller's persistent one when provided (a serving loop
    // re-entering Pipeline::Apply should not respawn threads per call),
    // otherwise spawned for this call.
    pool = options.pool;
    if (pool == nullptr) {
      own_pool = std::make_unique<exec::ThreadPool>(threads);
      pool = own_pool.get();
    }
    size_t workers = pool->workers();
    std::vector<std::unique_ptr<sat::Solver>> solvers;
    std::vector<std::unique_ptr<exec::WorldScratch>> scratches;
    solvers.reserve(workers);
    scratches.reserve(workers);
    for (size_t t = 0; t < workers; ++t) {
      solvers.push_back(std::make_unique<sat::Solver>());
      scratches.push_back(std::make_unique<exec::WorldScratch>());
    }
    Status pool_status =
        pool->ParallelFor(kb.size(), [&](size_t i, size_t worker) {
          internal::MuExecContext exec = base_exec;
          exec.solver = solvers[worker].get();
          exec.scratch = scratches[worker].get();
          run_world(i, exec);
        });
    // run_world contains exceptions in per-world slots, so a pool-level error
    // means the dispatch machinery itself failed; surface it unless a world
    // already recorded a more specific one.
    if (!pool_status.ok() &&
        std::all_of(statuses.begin(), statuses.end(),
                    [](const Status& s) { return s.ok(); })) {
      return pool_status;
    }
    out->threads_used = std::min(workers, kb.size());
  }

  exec::GroundingCache::Stats cache_stats = cache->stats();
  out->ground_cache_hits = cache_stats.hits - ground_stats_before.hits;
  out->ground_cache_misses = cache_stats.misses - ground_stats_before.misses;
  exec::CnfCache::Stats cnf_stats = cnf_cache->stats();
  out->cnf_cache_hits = cnf_stats.hits - cnf_stats_before.hits;
  out->cnf_cache_misses = cnf_stats.misses - cnf_stats_before.misses;
  out->shared_worlds = shared_worlds.load(std::memory_order_relaxed);

  Knowledgebase::ParallelMap pmap;
  if (pool != nullptr) {
    pmap = [pool](size_t n, const std::function<void(size_t)>& fn) {
      return pool->ParallelFor(n, [&fn](size_t i, size_t) { fn(i); });
    };
  }
  return MergeTauResults(kb, extended_schema, std::move(ext_base),
                         std::move(statuses), std::move(results),
                         std::move(world_stats),
                         pool != nullptr ? &pmap : nullptr, out);
}

StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const MuOptions& options, TauStats* stats) {
  TauOptions tau_options;
  tau_options.mu = options;
  return Tau(sentence, kb, tau_options, stats);
}

}  // namespace kbt
