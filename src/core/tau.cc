#include "core/tau.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <unordered_map>
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
#include "rel/world_domains.h"
#include "sat/solver.h"

namespace kbt {

namespace {

/// Part `c` of a grounding: component c, or the whole root when the root is
/// one component. μ runs per part, and a world's class key for part c is
/// (B, c, the world's bits on the part's atoms).
size_t PartCount(const exec::CachedGrounding& g) {
  return std::max<size_t>(1, g.components.size());
}
int PartRoot(const exec::CachedGrounding& g, size_t c) {
  return g.components.empty() ? g.grounding.root : g.components[c].root;
}
const std::vector<int>& PartAtoms(const exec::CachedGrounding& g, size_t c) {
  return g.components.empty() ? g.mentioned : g.components[c].atoms;
}
size_t Words(size_t bits) { return (bits + 63) / 64; }

/// What pass A keeps of one world: its domain B, B's grounding lookup, and
/// the key bits its delta flips, a range of the call's one flip array.
struct WorldSlot {
  /// B: the call's shared domain0, or `own_domain` when the world's differs,
  /// and its grounding and frozen prefix: the call's one lookup for domain0,
  /// or `own_ground`, allocated only for a domain of the world's own (slots
  /// never move once pass A has filled them).
  const std::vector<Value>* domain = nullptr;
  std::vector<Value> own_domain;
  const internal::MuGrounding* ground = nullptr;
  std::unique_ptr<internal::MuGrounding> own_ground;
  /// flips[flip_begin, flip_begin + flip_count): the bits of the world's key
  /// (CachedGrounding::key_bit) that differ from its grounding's base key,
  /// in increasing order. The calling thread reserves one entry per delta
  /// tuple; pass A fills them.
  size_t flip_begin = 0;
  size_t flip_count = 0;
};

/// Tuples in a world's delta: an upper bound on the key bits it flips.
size_t DeltaTuples(const WorldOverlay& overlay) {
  size_t tuples = 0;
  for (const RelationDelta& d : overlay.deltas()) {
    tuples += d.adds.size() + d.dels.size();
  }
  return tuples;
}

/// Writes the key bits of a world's delta atoms to `out`, which has room for
/// DeltaTuples(overlay), in increasing order, and returns their count. The
/// world's key is its grounding's base key with exactly these bits flipped.
/// This is exact because overlays are canonical (adds are not in the base,
/// dels are), so each delta tuple that is a mentioned atom flips exactly that
/// atom's bit, and no two of them flip the same one; a tuple that is no atom
/// of the grounding is not found; atoms of relations new to σ(kb) are never
/// set, and no overlay touches them.
size_t CollectFlips(const exec::CachedGrounding& g, const Schema& schema,
                    const WorldOverlay& overlay, uint32_t* out) {
  size_t count = 0;
  for (const RelationDelta& d : overlay.deltas()) {
    const Symbol relation = schema.decl(d.pos).symbol;
    for (const Relation* rows : {&d.adds, &d.dels}) {
      for (TupleView t : *rows) {
        const int id = g.grounding.atoms.Find(relation, t);
        if (id < 0) continue;
        const uint32_t b = g.key_bit[static_cast<size_t>(id)];
        if (b != exec::kNoKeyBit) out[count++] = b;
      }
    }
  }
  std::sort(out, out + count);
  return count;
}

/// A world class: the worlds sharing B and their bits on one part of the
/// grounding over B. μ runs once per class, on its lowest-indexed member, the
/// leader; the class's bits on the part start at ClassTable::bits[bits].
struct WorldClass {
  size_t leader = 0;
  uint32_t part = 0;
  size_t bits = 0;
};

/// Pass B's output: the classes in the order their leaders were met, their
/// bits one after another, and each world's class per part
/// (`of[begin[i]] .. of[begin[i + 1] - 1]`).
struct ClassTable {
  std::vector<WorldClass> classes;
  std::vector<uint64_t> bits;
  std::vector<uint32_t> of;
  std::vector<size_t> begin;
  uint64_t worlds = 0;
  uint64_t leaders = 0;  ///< Worlds that lead at least one class.
};

/// Pass B: numbers the (B, part, bits on the part) classes in world order, so
/// the lowest-indexed member leads each class and class ids do not depend on
/// scheduling. A part none of whose bits a world flips is its domain group's
/// base class for the part, numbered when first met; only a part a world's
/// flips touch is hashed, as the group's base key with those flips applied.
/// One thread and flat tables: a lock per key costs more than the μ work the
/// classes save (docs/exec.md, "World classes").
StatusOr<ClassTable> AssignClasses(const Database& ext_base,
                                   const std::vector<WorldSlot>& slots,
                                   const std::vector<uint32_t>& flips) {
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  ClassTable t;
  t.worlds = slots.size();
  t.begin.reserve(slots.size() + 1);
  t.begin.push_back(0);
  if (!slots.empty()) {
    t.of.reserve(slots.size() * PartCount(*slots[0].ground->grounding));
  }
  // Worlds with equal B have equal groundings, part for part; a cached
  // grounding is B's alone, so a repeat of the previous world's grounding
  // skips hashing B. Each group's base key (the extended base's bits on its
  // grounding, in the key layout) is computed when the group is first met.
  struct Group {
    std::vector<uint64_t> base_key;
    std::vector<uint32_t> base_class;  ///< Per part; kNone until met.
  };
  std::unordered_map<std::vector<Value>, uint32_t, exec::DomainHash> group_of;
  std::vector<Group> groups;
  const exec::CachedGrounding* last_grounding = nullptr;
  uint32_t group = 0;
  // Class k's key is (group, part, its bits); `table` is open-addressed over
  // the key hashes and at most half full.
  std::vector<uint64_t> class_hash;
  std::vector<uint32_t> class_group;
  std::vector<uint32_t> table(64, kNone);
  // The class of (group, c, the last `words` words of t.bits), led by world
  // i when it is new; an existing class's bits are already stored, so the
  // candidate's are dropped.
  auto find_or_add = [&](size_t i, uint32_t c, size_t words,
                         bool* fresh) -> uint32_t {
    const size_t at_bits = t.bits.size() - words;
    const uint64_t* key = t.bits.data() + at_bits;
    uint64_t hash = HashCombine(group, c);
    for (size_t w = 0; w < words; ++w) hash = HashCombine(hash, key[w]);
    hash = Mix64(hash);
    size_t at = hash & (table.size() - 1);
    for (uint32_t k = table[at]; k != kNone; k = table[at]) {
      const WorldClass& other = t.classes[k];
      if (class_hash[k] == hash && class_group[k] == group &&
          other.part == c &&
          std::equal(key, key + words, t.bits.data() + other.bits)) {
        t.bits.resize(at_bits);
        return k;
      }
      at = (at + 1) & (table.size() - 1);
    }
    const uint32_t k = static_cast<uint32_t>(t.classes.size());
    t.classes.push_back(WorldClass{i, c, at_bits});
    class_hash.push_back(hash);
    class_group.push_back(group);
    table[at] = k;
    *fresh = true;
    if (2 * t.classes.size() > table.size()) {
      table.assign(2 * table.size(), kNone);
      for (uint32_t j = 0; j < t.classes.size(); ++j) {
        size_t free = class_hash[j] & (table.size() - 1);
        while (table[free] != kNone) free = (free + 1) & (table.size() - 1);
        table[free] = j;
      }
    }
    return k;
  };
  for (size_t i = 0; i < slots.size(); ++i) {
    const WorldSlot& slot = slots[i];
    const exec::CachedGrounding& grounding = *slot.ground->grounding;
    if (&grounding != last_grounding) {
      last_grounding = &grounding;
      auto [it, fresh] = group_of.try_emplace(
          *slot.domain, static_cast<uint32_t>(group_of.size()));
      group = it->second;
      if (fresh) {
        KBT_ASSIGN_OR_RETURN(
            std::vector<uint64_t> bits,
            internal::AtomBits(grounding, ext_base, /*key_layout=*/true));
        groups.push_back(Group{std::move(bits),
                               std::vector<uint32_t>(PartCount(grounding),
                                                     kNone)});
      }
    }
    Group& g = groups[group];
    const uint32_t* flip = flips.data() + slot.flip_begin;
    const uint32_t* const flip_end = flip + slot.flip_count;
    bool leads = false;
    size_t word = 0;
    for (uint32_t c = 0; c < PartCount(grounding); ++c) {
      const size_t words = Words(PartAtoms(grounding, c).size());
      const uint32_t* part_end = flip;
      while (part_end != flip_end && *part_end < 64 * (word + words)) {
        ++part_end;
      }
      const bool flipped = part_end != flip;
      uint32_t k = g.base_class[c];
      bool fresh = false;
      if (flipped || k == kNone) {
        const size_t at = t.bits.size();
        const auto base = g.base_key.begin() + static_cast<ptrdiff_t>(word);
        t.bits.insert(t.bits.end(), base,
                      base + static_cast<ptrdiff_t>(words));
        for (; flip != part_end; ++flip) {
          t.bits[at + *flip / 64 - word] ^= uint64_t{1} << (*flip % 64);
        }
        k = find_or_add(i, c, words, &fresh);
        if (!flipped) g.base_class[c] = k;
      }
      t.of.push_back(k);
      leads = leads || fresh;
      word += words;
    }
    if (leads) ++t.leaders;
    t.begin.push_back(t.of.size());
  }
  return t;
}

/// Checks that a μ result is anchored where pass D composes it: every
/// strategy returns its models as overlays of the world's context base, which
/// must be the world's input overlay applied to the shared extended input
/// base. Checked once per μ computation, by the world that ran it.
Status CheckAnchored(const Knowledgebase& mu, const WorldOverlay& input,
                     const Database& ext_base, const Schema& extended_schema) {
  if (mu.empty()) return Status::OK();
  if (mu.schema() != extended_schema) {
    return Status::InvalidArgument("knowledgebase union: schema mismatch");
  }
  if (!input.ApplyEquals(ext_base, *mu.base())) {
    return Status::Internal("μ result not anchored at its input world");
  }
  return Status::OK();
}

/// Pass D's per-worker scratch: the odometer over a world's combinations,
/// the models it picks, and UnionOfParts' deltas and rows.
struct ComposeScratch {
  std::vector<size_t> pick;
  std::vector<const WorldOverlay*> chosen;
  std::vector<const RelationDelta*> deltas;
  std::vector<TupleView> rows;
};

/// One side (adds or dels) of the union of deltas at one position from
/// distinct components: their rows are disjoint, so sorted they are strictly
/// increasing, and the builder adopts its buffer without sorting it again.
Relation UnionOfSide(std::span<const RelationDelta* const> deltas,
                     Relation RelationDelta::*side,
                     std::vector<TupleView>* rows) {
  rows->clear();
  for (const RelationDelta* d : deltas) {
    for (TupleView row : d->*side) rows->push_back(row);
  }
  std::sort(rows->begin(), rows->end());
  Relation::Builder out((deltas[0]->*side).arity());
  out.Reserve(rows->size());
  for (TupleView row : *rows) out.Append(row);
  return out.Build();
}

/// The union of models of distinct components: they touch disjoint atoms,
/// so per position the adds, and the dels, are disjoint.
WorldOverlay UnionOfParts(std::span<const WorldOverlay* const> parts,
                          ComposeScratch* scratch) {
  std::vector<const RelationDelta*>& deltas = scratch->deltas;
  deltas.clear();
  for (const WorldOverlay* part : parts) {
    for (const RelationDelta& d : part->deltas()) deltas.push_back(&d);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const RelationDelta* a, const RelationDelta* b) {
              return a->pos < b->pos;
            });
  size_t positions = 0;
  for (size_t i = 0; i < deltas.size(); ++i) {
    positions += i == 0 || deltas[i]->pos != deltas[i - 1]->pos;
  }
  std::vector<RelationDelta> out;
  out.reserve(positions);
  for (size_t i = 0; i < deltas.size();) {
    size_t j = i + 1;
    while (j < deltas.size() && deltas[j]->pos == deltas[i]->pos) ++j;
    if (j == i + 1) {
      out.push_back(*deltas[i]);
    } else {
      const std::span<const RelationDelta* const> same(deltas.data() + i,
                                                       j - i);
      out.push_back(RelationDelta{
          deltas[i]->pos,
          UnionOfSide(same, &RelationDelta::adds, &scratch->rows),
          UnionOfSide(same, &RelationDelta::dels, &scratch->rows)});
    }
    i = j;
  }
  return WorldOverlay::FromDeltas(std::move(out));
}

/// How many output worlds pass D composes for a world whose classes are
/// `classes`: the product of their model counts, or 0 when one part has no
/// model (then neither has φ). max_models bounds each world's result, as it
/// bounds plain μ's.
StatusOr<size_t> ProductCount(std::span<const uint32_t> classes,
                              const std::vector<Knowledgebase>& class_mu,
                              size_t max_models) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  size_t count = 1;
  for (uint32_t c : classes) {
    const size_t models = class_mu[c].size();
    if (models == 0) return size_t{0};
    count = count > kMax / models ? kMax : count * models;
  }
  if (count > max_models) {
    return Status::ResourceExhausted("μ produced more than " +
                                     std::to_string(max_models) +
                                     " minimal models");
  }
  return count;
}

/// Pass D for a world on the grounded routes: its input overlay composed with
/// every combination of one model per component, each taken from the world's
/// class for that component, written to `out`, which ProductCount sized. A
/// class's models touch only its component's atoms, on which the world
/// agrees with the class leader, and distinct components touch disjoint
/// atoms; so the union of one model per component is canonical against the
/// world, and one Compose applies it.
void ComposeProduct(const WorldOverlay& input,
                    std::span<const uint32_t> classes,
                    const std::vector<Knowledgebase>& class_mu,
                    ComposeScratch* scratch, std::span<WorldOverlay> out) {
  if (out.empty()) return;
  if (classes.size() == 1) {  // One part: no combinations to form.
    const std::vector<WorldOverlay>& models = class_mu[classes[0]].overlays();
    for (size_t k = 0; k < models.size(); ++k) {
      out[k] = models[k].identity() ? input
                                    : WorldOverlay::Compose(input, models[k]);
    }
    return;
  }
  // An odometer over the combinations; identity models contribute nothing.
  std::vector<size_t>& pick = scratch->pick;
  std::vector<const WorldOverlay*>& chosen = scratch->chosen;
  pick.assign(classes.size(), 0);
  for (WorldOverlay& slot : out) {
    chosen.clear();
    for (size_t c = 0; c < classes.size(); ++c) {
      const WorldOverlay& model = class_mu[classes[c]].overlays()[pick[c]];
      if (!model.identity()) chosen.push_back(&model);
    }
    if (chosen.empty()) {
      slot = input;
    } else if (chosen.size() == 1) {
      slot = WorldOverlay::Compose(input, *chosen[0]);
    } else {
      slot = WorldOverlay::Compose(input, UnionOfParts(chosen, scratch));
    }
    size_t c = 0;
    while (c < classes.size() && ++pick[c] == class_mu[classes[c]].size()) {
      pick[c++] = 0;
    }
  }
}

/// Runs `task`, turning a throw into a status: one world or class failing —
/// by Status or by throwing — fails the call, never the process.
template <typename Fn>
Status Contained(const char* what, Fn&& task) {
  try {
    return task();
  } catch (const std::exception& e) {
    return Status::Internal(std::string(what) + " threw: " + e.what());
  } catch (...) {
    return Status::Internal(std::string(what) +
                            " threw a non-standard exception");
  }
}

/// The lowest-indexed recorded error; with threads=1 that is exactly the
/// sequential first failure, with threads>1 the first failure the executor
/// observed (later tasks are skipped, not run-and-discarded). A dispatch
/// error of the pool itself surfaces only when no task recorded one.
Status FirstError(const std::vector<Status>& statuses, const Status& pool) {
  for (const Status& s : statuses) KBT_RETURN_IF_ERROR(s);
  return pool;
}

}  // namespace

StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const TauOptions& options, TauStats* stats) {
  TauStats local;
  TauStats* out = stats != nullptr ? stats : &local;
  out->input_databases = kb.size();

  // The extended schema σ(kb) ∪ σ(φ) depends only on the shared input
  // schema, so one probe context over an empty database resolves it, and
  // validates (φ, schema), for every world.
  const Database probe(kb.schema());
  KBT_ASSIGN_OR_RETURN(UpdateContext probe_ctx,
                       MakeUpdateContext(sentence, probe));
  const Schema extended_schema = std::move(probe_ctx.schema);
  if (kb.empty()) {
    // Preserve the extended schema so downstream steps see σ(kb) ∪ σ(φ).
    out->output_databases = 0;
    out->threads_used = 1;
    return Knowledgebase(extended_schema);
  }

  // One cache pair per τ call — or the caller's persistent pair (a serving
  // loop re-querying one sentence across snapshots): the sentence is fixed, so
  // the key is the active domain alone. Worlds with equal domains ground once
  // (GroundingCache) and, on the SAT path, Tseitin-encode once (CnfCache —
  // each class's solver forks from the frozen prefix).
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
  base_exec.extended_schema = &extended_schema;
  base_exec.ground_cache = cache;
  // Freezing and forking only pays for itself when a prefix is reused: a
  // singleton kb would encode once either way but add a snapshot copy, so the
  // prefix path needs at least two worlds — unless the cache outlives this
  // call, where the fork amortizes across calls instead.
  if (kb.size() > 1 || options.cnf_cache != nullptr) {
    base_exec.cnf_cache = cnf_cache;
  }

  // The call's route, decided once: planning depends only on (φ, schema),
  // and all worlds share one schema. Datalog and definitional μ take the
  // block routes below; the grounded routes (SAT, reference, and kAuto's
  // resolution to them) take the world-class passes, where kAuto's fallback
  // from an over-budget reference μ stays per class.
  internal::TauStrategyPlan plan;
  MuStrategy route = options.mu.strategy;
  std::shared_ptr<const internal::DatalogPlan> datalog;
  std::shared_ptr<const internal::DefinitionalPlan> definitional;
  if (route == MuStrategy::kAuto) {
    KBT_ASSIGN_OR_RETURN(plan, internal::PlanTauStrategies(sentence, probe));
    base_exec.plan = &plan;
    route = internal::ResolveAuto(plan);
    datalog = plan.datalog;
    definitional = plan.definitional;
  } else if (route == MuStrategy::kDatalog) {
    KBT_ASSIGN_OR_RETURN(datalog,
                         internal::RequireDatalogPlan(sentence, probe));
  } else if (route == MuStrategy::kDefinitional) {
    KBT_ASSIGN_OR_RETURN(definitional,
                         internal::RequireDefinitionalPlan(sentence, probe));
  }

  // The shared input base extended to σ(kb) ∪ σ(φ): every μ result is
  // checked against it once, by the world that computed it, the base keys
  // are read from it, and the merge anchors the output at it.
  KBT_ASSIGN_OR_RETURN(Database extended, kb.base()->ExtendTo(extended_schema));
  auto ext_base = std::make_shared<const Database>(std::move(extended));

  size_t threads = options.threads != 0
                       ? options.threads
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, kb.size());

  // In parallel, the passes run on the caller's persistent pool (a serving
  // loop re-entering Pipeline::Apply should not respawn threads per call) or
  // one started for this call; sequentially, as plain loops in the caller.
  exec::ThreadPool* pool = nullptr;
  std::unique_ptr<exec::ThreadPool> own_pool;
  out->threads_used = 1;
  if (threads > 1) {
    pool = options.pool;
    if (pool == nullptr) {
      own_pool = std::make_unique<exec::ThreadPool>(threads);
      pool = own_pool.get();
    }
    out->threads_used = std::min(pool->workers(), kb.size());
  }
  const size_t width = pool != nullptr ? pool->workers() : 1;

  // Runs body(i, worker) for every i < n — in order in the calling thread,
  // or on the pool; `worker` < width. After the first failure no further
  // task starts: the error is going to be returned anyway.
  std::atomic<bool> failed{false};
  auto for_each = [&](size_t n, std::vector<Status>* statuses,
                      const auto& body) {
    auto task = [&](size_t i, size_t worker) {
      if (failed.load(std::memory_order_relaxed)) return;
      Status s = Contained("τ task", [&] { return body(i, worker); });
      if (!s.ok()) {
        (*statuses)[i] = std::move(s);
        failed.store(true, std::memory_order_relaxed);
      }
    };
    Status dispatched;
    if (pool == nullptr) {
      for (size_t i = 0; i < n; ++i) task(i, 0);
    } else {
      dispatched = pool->ParallelFor(n, task);
    }
    return FirstError(*statuses, dispatched);
  };

  // The merge: every output arrives as an overlay of the shared extended
  // input base (schema union appends declarations, so input overlay
  // positions survive extension unchanged), grouped by input world:
  // outputs[first[i] .. first[i + 1]) are world i's. No world is ever
  // flattened. When μ leaves σ(kb) alone, every output keeps its input
  // world's deltas there, and FromWorldOutputs orders only each world's own
  // outputs.
  auto merge = [&](std::vector<WorldOverlay> outputs,
                   const std::vector<size_t>& first) -> StatusOr<Knowledgebase> {
    KBT_ASSIGN_OR_RETURN(Knowledgebase result,
                         Knowledgebase::FromWorldOutputs(
                             kb, std::move(ext_base), std::move(outputs), first));
    out->output_databases = result.size();
    return result;
  };

  // The block routes (docs/exec.md): μ once per block of 64 worlds, one pool
  // task per block at width > 1. Block boundaries do not depend on the
  // width, so neither do results or stats. No world gets a context or a μ
  // result anchored at a base of its own, so CheckAnchored has nothing to
  // check: each output is its input overlay, canonical against the extended
  // base, plus adds at head positions, which are new to σ(kb) and empty in
  // that base. One output per world.
  auto run_blocks = [&](const auto& block) -> StatusOr<Knowledgebase> {
    const size_t blocks = (kb.size() + 63) / 64;
    std::vector<WorldOverlay> outputs(kb.size());
    std::vector<MuStats> block_stats(blocks);
    std::vector<Status> block_status(blocks);
    KBT_RETURN_IF_ERROR(for_each(
        blocks, &block_status, [&](size_t b, size_t) -> Status {
          const size_t begin = 64 * b;
          const size_t end = std::min(kb.size(), begin + 64);
          return block(begin, &block_stats[b],
                       std::span<WorldOverlay>(outputs).subspan(begin,
                                                                end - begin));
        }));
    for (const MuStats& s : block_stats) out->mu.MergeFrom(s);
    std::vector<size_t> first(kb.size() + 1);
    std::iota(first.begin(), first.end(), size_t{0});
    return merge(std::move(outputs), first);
  };
  if (route == MuStrategy::kDatalog) {
    return run_blocks([&](size_t begin, MuStats* block_stats,
                          std::span<WorldOverlay> block_out) {
      return internal::MuDatalogBlock(*datalog, kb, begin, extended_schema,
                                      options.mu, block_stats, block_out);
    });
  }
  // Each world's domain, from the base's value counts and its overlay.
  const WorldDomains domains(*kb.base(), ConstantsOf(sentence));
  if (route == MuStrategy::kDefinitional) {
    return run_blocks([&](size_t begin, MuStats* block_stats,
                          std::span<WorldOverlay> block_out) {
      return internal::MuDefinitionalBlock(*definitional, kb, domains, begin,
                                           extended_schema, options.mu,
                                           block_stats, block_out);
    });
  }

  // Per-worker μ resources for the grounded routes. Sequentially: a
  // session-pinned solver/scratch (serving reads) or per-call locals, so
  // arena capacity and enumerator buffers stay warm across calls. In
  // parallel: each worker owns a Solver reused (via Reset or a frozen-prefix
  // fork) across every class it executes, plus a WorldScratch for the
  // enumerator's per-world tables.
  sat::Solver local_solver;
  exec::WorldScratch local_scratch;
  std::vector<std::unique_ptr<sat::Solver>> solvers;
  std::vector<std::unique_ptr<exec::WorldScratch>> scratches;
  std::vector<internal::MuExecContext> worker_exec(width, base_exec);
  if (pool == nullptr) {
    worker_exec[0].solver =
        options.solver != nullptr ? options.solver : &local_solver;
    worker_exec[0].scratch =
        options.scratch != nullptr ? options.scratch : &local_scratch;
  } else {
    for (internal::MuExecContext& exec : worker_exec) {
      solvers.push_back(std::make_unique<sat::Solver>());
      scratches.push_back(std::make_unique<exec::WorldScratch>());
      exec.solver = solvers.back().get();
      exec.scratch = scratches.back().get();
    }
  }

  // World classes in four passes (docs/exec.md, "World classes").
  const bool sat_route = route == MuStrategy::kSat;
  std::vector<WorldSlot> slots(kb.size());
  ClassTable table;
  std::vector<Knowledgebase> class_mu;
  std::vector<MuStats> class_stats;
  std::vector<size_t> first;
  std::vector<WorldOverlay> outputs;
  Status status = [&]() -> Status {
    if (options.mu.cancel != nullptr && options.mu.cancel->Expired()) {
      return Status::DeadlineExceeded("μ cancelled before evaluation");
    }
    // Domain0's grounding, looked up here once if any world has it; the
    // first world usually does, so the scan seldom reads past it. The
    // domains it computes stay in their slots, and pass A computes only the
    // others. Its status becomes that of every world that shares domain0.
    internal::MuGrounding base_ground;
    Status base_status;
    for (size_t i = 0; i < kb.size(); ++i) {
      WorldSlot& slot = slots[i];
      slot.domain = &domains.Of(kb.overlays()[i], &slot.own_domain);
      if (slot.domain == &domains.base_domain()) {
        base_status =
            internal::LookUpGrounding(sentence, domains.base_domain(),
                                      options.mu, base_exec, sat_route,
                                      &base_ground);
        break;
      }
    }
    // The room each world's flips may take, one entry per delta tuple, in
    // the calling thread's scratch: a serving session's lent scratch keeps
    // it for the session's next call.
    std::vector<uint32_t>& flips = worker_exec[0].scratch->key_flips;
    {
      size_t room = 0;
      for (size_t i = 0; i < kb.size(); ++i) {
        slots[i].flip_begin = room;
        room += DeltaTuples(kb.overlays()[i]);
      }
      flips.resize(room);
    }

    // A — key, per world, from its overlay alone: B from the base's value
    // counts (unless the scan above computed it), B's grounding (domain0's
    // lookup above, or one of the world's own), and the key bits its delta
    // atoms flip. Passes A and D share `world_status`: D runs only when A
    // failed nowhere.
    std::vector<Status> world_status(kb.size());
    KBT_RETURN_IF_ERROR(for_each(
        kb.size(), &world_status,
        [&](size_t i, size_t worker) -> Status {
          if (options.mu.cancel != nullptr && options.mu.cancel->Expired()) {
            return Status::DeadlineExceeded("μ cancelled before evaluation");
          }
          const WorldOverlay& input = kb.overlays()[i];
          WorldSlot& slot = slots[i];
          if (slot.domain == nullptr) {
            slot.domain = &domains.Of(input, &slot.own_domain);
          }
          if (slot.domain == &domains.base_domain()) {
            KBT_RETURN_IF_ERROR(base_status);
            slot.ground = &base_ground;
          } else {
            slot.own_ground = std::make_unique<internal::MuGrounding>();
            KBT_RETURN_IF_ERROR(internal::LookUpGrounding(
                sentence, *slot.domain, options.mu, worker_exec[worker],
                sat_route, slot.own_ground.get()));
            slot.ground = slot.own_ground.get();
          }
          slot.flip_count =
              CollectFlips(*slot.ground->grounding, kb.schema(), input,
                           flips.data() + slot.flip_begin);
          return Status::OK();
        }));

    // B — classes, on this thread.
    KBT_ASSIGN_OR_RETURN(table, AssignClasses(*ext_base, slots, flips));

    // C — μ, per class.
    class_mu.resize(table.classes.size());
    class_stats.resize(table.classes.size());
    std::vector<Status> class_status(table.classes.size());
    KBT_RETURN_IF_ERROR(for_each(
        table.classes.size(), &class_status,
        [&](size_t k, size_t worker) -> Status {
          // Only the leader's world and context are built, from what
          // passes A and B kept: B, the grounding and the class's bits.
          const WorldClass& wc = table.classes[k];
          const WorldSlot& leader = slots[wc.leader];
          internal::MuGrounding part;
          part.grounding = leader.ground->grounding;
          part.frozen = leader.ground->frozen;
          part.root = PartRoot(*part.grounding, wc.part);
          part.atoms = &PartAtoms(*part.grounding, wc.part);
          const auto bits =
              table.bits.begin() + static_cast<ptrdiff_t>(wc.bits);
          part.bits.assign(
              bits, bits + static_cast<ptrdiff_t>(Words(part.atoms->size())));
          const internal::PreparedPart known{leader.domain, &part};
          Database world = kb.World(wc.leader);
          KBT_ASSIGN_OR_RETURN(
              internal::PreparedMu prep,
              internal::PrepareMu(sentence, world, options.mu,
                                  worker_exec[worker], &known));
          KBT_ASSIGN_OR_RETURN(
              class_mu[k],
              internal::RunPreparedMu(sentence, world, prep, options.mu,
                                      &class_stats[k], worker_exec[worker]));
          return CheckAnchored(class_mu[k], kb.overlays()[wc.leader],
                               *ext_base, extended_schema);
        }));

    // Each world's product count, in world order on this thread: the
    // lowest-indexed world over max_models fails the call, as sequential μ
    // would, and the one output array is sized before D writes into it.
    auto classes_of = [&](size_t i) {
      return std::span<const uint32_t>(table.of).subspan(
          table.begin[i], table.begin[i + 1] - table.begin[i]);
    };
    first.reserve(kb.size() + 1);
    size_t total = 0;
    for (size_t i = 0; i < kb.size(); ++i) {
      first.push_back(total);
      KBT_ASSIGN_OR_RETURN(
          size_t count,
          ProductCount(classes_of(i), class_mu, options.mu.max_models));
      total += count;
    }
    first.push_back(total);
    outputs.resize(total);

    // D — compose, per world: the world's input overlay with the product of
    // its classes' models, into the world's range of `outputs`.
    std::vector<ComposeScratch> compose_scratch(width);
    return for_each(
        kb.size(), &world_status, [&](size_t i, size_t worker) -> Status {
          ComposeProduct(kb.overlays()[i], classes_of(i), class_mu,
                         &compose_scratch[worker],
                         std::span<WorldOverlay>(outputs).subspan(
                             first[i], first[i + 1] - first[i]));
          return Status::OK();
        });
  }();

  // Work counters add up across calls sharing one stats object (a chain);
  // sizes and threads_used describe this call alone.
  exec::GroundingCache::Stats cache_stats = cache->stats();
  out->ground_cache_hits += cache_stats.hits - ground_stats_before.hits;
  out->ground_cache_misses += cache_stats.misses - ground_stats_before.misses;
  exec::CnfCache::Stats cnf_stats = cnf_cache->stats();
  out->cnf_cache_hits += cnf_stats.hits - cnf_stats_before.hits;
  out->cnf_cache_misses += cnf_stats.misses - cnf_stats_before.misses;
  out->shared_worlds += table.worlds - table.leaders;
  out->mu_classes += table.classes.size();
  KBT_RETURN_IF_ERROR(status);
  // In class order: independent of execution interleaving.
  for (const MuStats& s : class_stats) out->mu.MergeFrom(s);
  class_mu.clear();
  slots.clear();
  return merge(std::move(outputs), first);
}

StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const MuOptions& options, TauStats* stats) {
  TauOptions tau_options;
  tau_options.mu = options;
  return Tau(sentence, kb, tau_options, stats);
}

}  // namespace kbt
