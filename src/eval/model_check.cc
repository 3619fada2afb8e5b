#include "eval/model_check.h"

#include <algorithm>
#include <utility>

#include "logic/analysis.h"

namespace kbt {

namespace {

class Checker {
 public:
  Checker(const Database& db, const std::vector<Value>& domain)
      : db_(db), domain_(domain) {}

  StatusOr<bool> Check(const Formula& f) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kAtom: {
        std::optional<size_t> pos = db_.schema().PositionOf(f->relation());
        if (!pos) {
          return Status::InvalidArgument(
              "σ(db) does not dominate σ(φ): unknown relation " +
              NameOf(f->relation()));
        }
        const Relation& r = db_.relation_at(*pos);
        if (r.arity() != f->terms().size()) {
          return Status::InvalidArgument("arity mismatch for relation " +
                                         NameOf(f->relation()));
        }
        scratch_.clear();
        scratch_.reserve(f->terms().size());
        for (const Term& t : f->terms()) {
          KBT_ASSIGN_OR_RETURN(Value v, Resolve(t));
          scratch_.push_back(v);
        }
        return r.Contains(TupleView(scratch_.data(), scratch_.size()));
      }
      case FormulaKind::kEquals: {
        KBT_ASSIGN_OR_RETURN(Value lhs, Resolve(f->terms()[0]));
        KBT_ASSIGN_OR_RETURN(Value rhs, Resolve(f->terms()[1]));
        return lhs == rhs;
      }
      case FormulaKind::kNot: {
        KBT_ASSIGN_OR_RETURN(bool inner, Check(f->children()[0]));
        return !inner;
      }
      case FormulaKind::kAnd: {
        for (const Formula& c : f->children()) {
          KBT_ASSIGN_OR_RETURN(bool v, Check(c));
          if (!v) return false;
        }
        return true;
      }
      case FormulaKind::kOr: {
        for (const Formula& c : f->children()) {
          KBT_ASSIGN_OR_RETURN(bool v, Check(c));
          if (v) return true;
        }
        return false;
      }
      case FormulaKind::kImplies: {
        KBT_ASSIGN_OR_RETURN(bool a, Check(f->children()[0]));
        if (!a) return true;
        return Check(f->children()[1]);
      }
      case FormulaKind::kIff: {
        KBT_ASSIGN_OR_RETURN(bool a, Check(f->children()[0]));
        KBT_ASSIGN_OR_RETURN(bool b, Check(f->children()[1]));
        return a == b;
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        bool universal = f->kind() == FormulaKind::kForall;
        Symbol var = f->variable();
        // Push a binding frame; Resolve scans from the back, so the new frame
        // shadows any outer binding of the same name until popped.
        env_.emplace_back(var, Value{});
        size_t frame = env_.size() - 1;
        StatusOr<bool> result = universal;
        for (Value v : domain_) {
          env_[frame].second = v;
          result = Check(f->children()[0]);
          if (!result.ok()) break;
          if (*result != universal) break;  // Short-circuit.
        }
        env_.pop_back();
        return result;
      }
    }
    return Status::Internal("unknown formula kind");
  }

  void Bind(Symbol var, Value value) {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == var) {
        it->second = value;
        return;
      }
    }
    env_.emplace_back(var, value);
  }

 private:
  StatusOr<Value> Resolve(const Term& t) {
    if (t.is_constant()) return t.symbol;
    // Reverse linear scan of the binding stack: the environment is only ever a
    // handful of quantifier frames deep, and the flat layout beats hashing on
    // the per-atom hot path. The innermost (latest) binding wins.
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == t.symbol) return it->second;
    }
    return Status::InvalidArgument("unbound variable: " + NameOf(t.symbol));
  }

  const Database& db_;
  const std::vector<Value>& domain_;
  std::vector<std::pair<Symbol, Value>> env_;  ///< Flat binding stack.
  std::vector<Value> scratch_;  // Atom-argument buffer; no alloc per atom check.
};

/// Checker's masked twin over a WorldBlock: each formula evaluates to the
/// mask of the block's worlds where it holds.
class MaskedChecker {
 public:
  explicit MaskedChecker(const WorldBlock& block)
      : block_(block), all_(block.all()) {}

  StatusOr<uint64_t> Check(const Formula& f) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return all_;
      case FormulaKind::kFalse:
        return uint64_t{0};
      case FormulaKind::kAtom: {
        const Database& base = block_.base();
        std::optional<size_t> pos = base.schema().PositionOf(f->relation());
        if (!pos) {
          return Status::InvalidArgument(
              "σ(db) does not dominate σ(φ): unknown relation " +
              NameOf(f->relation()));
        }
        if (base.relation_at(*pos).arity() != f->terms().size()) {
          return Status::InvalidArgument("arity mismatch for relation " +
                                         NameOf(f->relation()));
        }
        if (!block_.indexed(*pos)) {
          return Status::Internal("world block does not index relation " +
                                  NameOf(f->relation()));
        }
        scratch_.clear();
        for (const Term& t : f->terms()) {
          KBT_ASSIGN_OR_RETURN(Value v, Resolve(t));
          scratch_.push_back(v);
        }
        return block_.AtomMask(*pos,
                               TupleView(scratch_.data(), scratch_.size()));
      }
      case FormulaKind::kEquals: {
        KBT_ASSIGN_OR_RETURN(Value lhs, Resolve(f->terms()[0]));
        KBT_ASSIGN_OR_RETURN(Value rhs, Resolve(f->terms()[1]));
        return lhs == rhs ? all_ : uint64_t{0};
      }
      case FormulaKind::kNot: {
        KBT_ASSIGN_OR_RETURN(uint64_t inner, Check(f->children()[0]));
        return ~inner & all_;
      }
      case FormulaKind::kAnd: {
        uint64_t worlds = all_;
        for (const Formula& c : f->children()) {
          KBT_ASSIGN_OR_RETURN(uint64_t v, Check(c));
          worlds &= v;
          if (worlds == 0) break;
        }
        return worlds;
      }
      case FormulaKind::kOr: {
        uint64_t worlds = 0;
        for (const Formula& c : f->children()) {
          KBT_ASSIGN_OR_RETURN(uint64_t v, Check(c));
          worlds |= v;
          if (worlds == all_) break;
        }
        return worlds;
      }
      case FormulaKind::kImplies: {
        KBT_ASSIGN_OR_RETURN(uint64_t a, Check(f->children()[0]));
        if (a == 0) return all_;
        KBT_ASSIGN_OR_RETURN(uint64_t b, Check(f->children()[1]));
        return (~a & all_) | b;
      }
      case FormulaKind::kIff: {
        KBT_ASSIGN_OR_RETURN(uint64_t a, Check(f->children()[0]));
        KBT_ASSIGN_OR_RETURN(uint64_t b, Check(f->children()[1]));
        return ~(a ^ b) & all_;
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        const bool universal = f->kind() == FormulaKind::kForall;
        const std::vector<Value>& universe = block_.universe();
        env_.emplace_back(f->variable(), Value{});
        const size_t frame = env_.size() - 1;
        // ∃: the worlds where some value of their own domain satisfies the
        // body; ∀: those where every value of it does.
        uint64_t worlds = universal ? all_ : 0;
        Status status;
        for (size_t i = 0; i < universe.size(); ++i) {
          env_[frame].second = universe[i];
          StatusOr<uint64_t> inner = Check(f->children()[0]);
          if (!inner.ok()) {
            status = inner.status();
            break;
          }
          const uint64_t in = block_.in_worlds(i);
          if (universal) {
            worlds &= (~in & all_) | *inner;
            if (worlds == 0) break;
          } else {
            worlds |= in & *inner;
            if (worlds == all_) break;
          }
        }
        env_.pop_back();
        KBT_RETURN_IF_ERROR(status);
        return worlds;
      }
    }
    return Status::Internal("unknown formula kind");
  }

  void Bind(Symbol var, Value value) {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == var) {
        it->second = value;
        return;
      }
    }
    env_.emplace_back(var, value);
  }

 private:
  StatusOr<Value> Resolve(const Term& t) {
    if (t.is_constant()) return t.symbol;
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == t.symbol) return it->second;
    }
    return Status::InvalidArgument("unbound variable: " + NameOf(t.symbol));
  }

  const WorldBlock& block_;
  const uint64_t all_;
  std::vector<std::pair<Symbol, Value>> env_;
  std::vector<Value> scratch_;
};

}  // namespace

std::vector<Value> ActiveDomain(const Database& db, const Formula& f) {
  std::vector<Value> domain = db.ActiveDomain();
  std::vector<Value> consts = ConstantsOf(f);
  domain.insert(domain.end(), consts.begin(), consts.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

StatusOr<bool> Satisfies(const Database& db, const Formula& f,
                         const std::vector<Value>& domain) {
  if (!IsSentence(f)) {
    return Status::InvalidArgument("Satisfies requires a sentence");
  }
  Checker checker(db, domain);
  return checker.Check(f);
}

StatusOr<bool> Satisfies(const Database& db, const Formula& f) {
  return Satisfies(db, f, ActiveDomain(db, f));
}

StatusOr<bool> KbSatisfies(const Knowledgebase& kb, const Formula& f) {
  // Worlds are materialized one at a time (copy-on-write against the shared
  // base) instead of flattening the whole kb into its cache.
  for (size_t i = 0; i < kb.size(); ++i) {
    Database db = kb.World(i);
    KBT_ASSIGN_OR_RETURN(bool v, Satisfies(db, f));
    if (!v) return false;
  }
  return true;
}

StatusOr<Relation> EvaluateQuery(const Database& db, const Formula& f,
                                 const std::vector<Symbol>& vars,
                                 const std::vector<Value>& domain) {
  std::set<Symbol> free = FreeVariables(f);
  for (Symbol v : vars) free.erase(v);
  if (!free.empty()) {
    return Status::InvalidArgument("EvaluateQuery: free variables not covered");
  }
  Relation::Builder rows(vars.size());
  // Enumerate |domain|^|vars| assignments; fine for the moderate arities the
  // examples and Theorem 5.1 benchmarks use. (An empty variable list checks the
  // sentence itself: the 0-ary answer is {()} or {}.)
  std::vector<size_t> idx(vars.size(), 0);
  std::vector<Value> values(vars.size());
  bool empty_domain = domain.empty() && !vars.empty();
  if (empty_domain) return Relation(vars.size());
  // One checker for the whole enumeration: Bind overwrites the previous
  // assignment and quantifier cases save/restore their variable, so no state
  // leaks between iterations.
  Checker checker(db, domain);
  while (true) {
    for (size_t i = 0; i < vars.size(); ++i) {
      values[i] = domain[idx[i]];
      checker.Bind(vars[i], values[i]);
    }
    KBT_ASSIGN_OR_RETURN(bool v, checker.Check(f));
    if (v) rows.Append(TupleView(values.data(), values.size()));
    // Advance the odometer.
    size_t k = 0;
    while (k < idx.size()) {
      if (++idx[k] < domain.size()) break;
      idx[k] = 0;
      ++k;
    }
    if (k == idx.size()) break;
    if (vars.empty()) break;
  }
  return rows.Build();
}

WorldBlock::WorldBlock(const Database& base,
                       std::span<const WorldOverlay> overlays,
                       const WorldDomains& domains,
                       const std::vector<Symbol>& relations)
    : base_(base),
      all_(overlays.size() == 64 ? ~uint64_t{0}
                                 : (uint64_t{1} << overlays.size()) - 1),
      universe_(&domains.base_domain()),
      indexed_(base.schema().size(), false),
      flips_(base.schema().size()) {
  // The universe: in the usual block every world has the base's domain, and
  // one scratch vector serves the whole check.
  std::vector<Value> scratch;
  bool shared = true;
  for (const WorldOverlay& overlay : overlays) {
    if (&domains.Of(overlay, &scratch) != universe_) {
      shared = false;
      break;
    }
  }
  if (!shared) {
    std::vector<std::vector<Value>> own(overlays.size());
    std::vector<const std::vector<Value>*> of(overlays.size());
    for (size_t w = 0; w < overlays.size(); ++w) {
      of[w] = &domains.Of(overlays[w], &own[w]);
      own_universe_.insert(own_universe_.end(), of[w]->begin(), of[w]->end());
    }
    std::sort(own_universe_.begin(), own_universe_.end());
    own_universe_.erase(std::unique(own_universe_.begin(), own_universe_.end()),
                        own_universe_.end());
    universe_ = &own_universe_;
    in_worlds_.assign(own_universe_.size(), 0);
    for (size_t w = 0; w < overlays.size(); ++w) {
      for (Value v : *of[w]) {
        const size_t i = static_cast<size_t>(
            std::lower_bound(own_universe_.begin(), own_universe_.end(), v) -
            own_universe_.begin());
        in_worlds_[i] |= uint64_t{1} << w;
      }
    }
  }

  for (Symbol r : relations) {
    if (std::optional<size_t> pos = base.schema().PositionOf(r)) {
      indexed_[*pos] = true;
    }
  }
  for (size_t w = 0; w < overlays.size(); ++w) {
    const uint64_t bit = uint64_t{1} << w;
    for (const RelationDelta& d : overlays[w].deltas()) {
      if (!indexed_[d.pos]) continue;
      for (TupleView t : d.adds) flips_[d.pos].push_back({t, false, bit});
      for (TupleView t : d.dels) flips_[d.pos].push_back({t, true, bit});
    }
  }
  for (std::vector<Flip>& flips : flips_) {
    if (flips.empty()) continue;
    const size_t arity = flips[0].tuple.arity();
    std::sort(flips.begin(), flips.end(), [&](const Flip& a, const Flip& b) {
      return CompareValues(a.tuple.data(), b.tuple.data(), arity) < 0;
    });
    // Merge each tuple's flips. Overlays are canonical, so a tuple is either
    // in the base, and only deleted, or not, and only added.
    size_t out = 0;
    for (size_t k = 0; k < flips.size(); ++k) {
      if (out > 0 && CompareValues(flips[out - 1].tuple.data(),
                                   flips[k].tuple.data(), arity) == 0) {
        flips[out - 1].worlds |= flips[k].worlds;
      } else {
        flips[out++] = flips[k];
      }
    }
    flips.resize(out);
  }
}

uint64_t WorldBlock::AtomMask(size_t pos, TupleView t) const {
  const std::vector<Flip>& flips = flips_[pos];
  if (!flips.empty()) {
    auto it = std::lower_bound(
        flips.begin(), flips.end(), t, [&](const Flip& f, TupleView probe) {
          return CompareValues(f.tuple.data(), probe.data(), t.arity()) < 0;
        });
    if (it != flips.end() &&
        CompareValues(it->tuple.data(), t.data(), t.arity()) == 0) {
      return it->in_base ? all_ & ~it->worlds : it->worlds;
    }
  }
  return base_.relation_at(pos).Contains(t) ? all_ : 0;
}

StatusOr<MaskedAnswers> EvaluateQueryMasked(const WorldBlock& block,
                                            const Formula& f,
                                            const std::vector<Symbol>& vars) {
  std::set<Symbol> free = FreeVariables(f);
  for (Symbol v : vars) free.erase(v);
  if (!free.empty()) {
    return Status::InvalidArgument("EvaluateQuery: free variables not covered");
  }
  MaskedAnswers out;
  out.arity = vars.size();
  const std::vector<Value>& universe = block.universe();
  if (universe.empty() && !vars.empty()) return out;
  MaskedChecker checker(block);
  // EvaluateQuery's odometer over universe^|vars|. An assignment is an
  // answer only in the worlds whose domain holds each of its values.
  std::vector<size_t> idx(vars.size(), 0);
  while (true) {
    uint64_t worlds = block.all();
    for (size_t i = 0; i < vars.size(); ++i) worlds &= block.in_worlds(idx[i]);
    if (worlds != 0) {
      for (size_t i = 0; i < vars.size(); ++i) {
        checker.Bind(vars[i], universe[idx[i]]);
      }
      KBT_ASSIGN_OR_RETURN(uint64_t holds, checker.Check(f));
      holds &= worlds;
      if (holds != 0) {
        for (size_t i : idx) out.values.push_back(universe[i]);
        out.masks.push_back(holds);
      }
    }
    size_t k = 0;
    while (k < idx.size()) {
      if (++idx[k] < universe.size()) break;
      idx[k] = 0;
      ++k;
    }
    if (k == idx.size()) break;
  }
  return out;
}

}  // namespace kbt
