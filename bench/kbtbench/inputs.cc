#include "inputs.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <random>
#include <set>
#include <utility>

#include "base/interner.h"
#include "rel/database.h"
#include "rel/relation.h"
#include "rel/schema.h"

namespace kbtbench {
namespace {

using kbt::Database;
using kbt::Knowledgebase;
using kbt::Name;
using kbt::Relation;
using kbt::Schema;

std::string C(int i) { return "n" + std::to_string(i); }

/// One generator per (workload, seed): workloads never share a random stream.
/// FNV-1a keeps the stream independent of the standard library's hash.
std::mt19937_64 Rng(const std::string& workload, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : workload) h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
  return std::mt19937_64(h ^ (seed * 0x9E3779B97F4A7C15ull));
}

int Pick(std::mt19937_64& rng, int n) {
  return std::uniform_int_distribution<int>(0, n - 1)(rng);
}

Relation Unary(const std::vector<int>& members) {
  Relation::Builder b(1);
  for (int m : members) b.Append({Name(C(m))});
  return b.Build();
}

/// `k` distinct values of [0, n), in random order.
std::vector<int> Choose(std::mt19937_64& rng, int n, int k) {
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(k);
  return all;
}

/// The served kbs: Dom pins the active domain, R (exactly `edges` tuples)
/// and Q (half the domain) are shared by every world, and the worlds are told
/// apart by P — distinct subsets of half of the first `p_span` constants.
/// Exact counts rather than coin flips keep the cost of a read the same from
/// one seed to the next.
Knowledgebase ServedKb(std::mt19937_64& rng, int domain, int worlds, int edges,
                       int p_span) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}, {"P", 1}, {"Q", 1}});
  Relation::Builder r(2);
  for (int cell : Choose(rng, domain * domain, edges)) {
    r.Append({Name(C(cell / domain)), Name(C(cell % domain))});
  }
  Relation all = Unary(Choose(rng, domain, domain));
  Relation edge_rel = r.Build();
  Relation q = Unary(Choose(rng, domain, domain / 2));
  std::set<std::vector<int>> seen;
  std::vector<Database> dbs;
  while (static_cast<int>(dbs.size()) < worlds) {
    std::vector<int> p = Choose(rng, p_span, p_span / 2);
    std::sort(p.begin(), p.end());
    if (!seen.insert(p).second) continue;
    dbs.push_back(*Database::Create(schema, {all, edge_rel, Unary(p), q}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// Ground or one-quantifier consequents over the first `span` constants;
/// `kind` picks one of ten shapes.
std::string Consequent(std::mt19937_64& rng, int span, size_t kind) {
  std::string a = C(Pick(rng, span)), b = C(Pick(rng, span));
  switch (kind % 10) {
    case 0: return "P(" + a + ")";
    case 1: return "Q(" + a + ")";
    case 2: return "R(" + a + ", " + b + ")";
    case 3: return "P(" + a + ") & Q(" + b + ")";
    case 4: return "P(" + a + ") | !Q(" + b + ")";
    case 5: return "exists x: P(x) & R(x, " + a + ")";
    case 6: return "forall x: P(x) -> (Q(x) | R(x, " + a + "))";
    case 7: return "exists x: R(" + a + ", x) & Q(x)";
    case 8: return "forall x: R(x, " + a + ") -> P(x)";
    default: return "exists x: P(x) & !Q(x) & R(" + a + ", x)";
  }
}

/// Ground antecedents: τ takes the reference-μ path over a handful of atoms.
std::string HotAntecedent(std::mt19937_64& rng, int span, size_t kind) {
  std::string a = C(Pick(rng, span)), b = C(Pick(rng, span));
  switch (kind % 7) {
    case 0: return "P(" + a + ")";
    case 1: return "!P(" + a + ")";
    case 2: return "Q(" + a + ")";
    case 3: return "!Q(" + a + ")";
    case 4: return "R(" + a + ", " + b + ")";
    case 5: return "!R(" + a + ", " + b + ")";
    default: return "P(" + a + ") | Q(" + b + ")";
  }
}

/// Non-Horn antecedents (existential, one disjunctive), three constant slots
/// each, so a 4096-request pool holds thousands of distinct sentences. S is a
/// new relation, so no world already satisfies the sentence: every read
/// takes the SAT path and enumerates one minimal model per witness x, which
/// keeps the cost of one read close to that of any other.
std::string ColdAntecedent(std::mt19937_64& rng, int span, size_t kind) {
  std::string a = C(Pick(rng, span)), b = C(Pick(rng, span)),
              c = C(Pick(rng, span));
  if (kind % 2 == 0) {
    return "exists x: R(" + a + ", x) & S(x, " + b + ") & !Q(" + c + ")";
  }
  return "exists x: (R(" + a + ", x) | Q(x)) & S(x, " + b + ") & !P(" + c + ")";
}

std::string Key(const Request& r) {
  std::string key = r.necessarily ? "N|" : "P|";
  for (const std::string& a : r.antecedents) key += a + "|";
  return key + r.consequent;
}

/// `count` distinct requests. Request i has `depth(i)` antecedents drawn by
/// `antecedent(i)`, consequent shape i mod 10 and alternating modality, so
/// every seed's pool holds the same mix of shapes. A shape that keeps
/// repeating an earlier request gives way to the next one.
std::vector<Request> Pool(std::mt19937_64& rng, size_t count, int span,
                          const std::function<int(size_t)>& depth,
                          const std::function<std::string(size_t)>& antecedent) {
  std::set<std::string> seen;
  std::vector<Request> pool;
  size_t repeats = 0;
  while (pool.size() < count) {
    const size_t i = pool.size();
    Request r;
    for (int d = depth(i); d > 0; --d) r.antecedents.push_back(antecedent(i));
    r.consequent = Consequent(rng, span, i + repeats / 64);
    r.necessarily = i % 2 == 0;
    if (seen.insert(Key(r)).second) {
      pool.push_back(std::move(r));
      repeats = 0;
    } else {
      ++repeats;
    }
  }
  return pool;
}

/// τ{Q(nK)} then τ{!Q(nK)} over every constant, in a seeded order: the
/// active domain never changes, so every write keeps the read caches valid.
std::vector<std::string> QFlips(std::mt19937_64& rng, int domain) {
  std::vector<int> order = Choose(rng, domain, domain);
  std::vector<std::string> writes;
  for (const char* sign : {"", "!"}) {
    for (int k : order) writes.push_back("tau{" + std::string(sign) + "Q(" + C(k) + ")}");
  }
  return writes;
}

/// read_hot's request pool: 24 ground antecedent sentences shared by 48
/// requests of depth 0, 1 and 2, over the first eight constants. Every
/// sentence fits the 64-entry cache bank.
std::vector<Request> HotPool(std::mt19937_64& rng) {
  std::vector<std::string> antecedents;
  std::set<std::string> seen;
  while (antecedents.size() < 24) {
    std::string a = HotAntecedent(rng, 8, antecedents.size());
    if (seen.insert(a).second) antecedents.push_back(a);
  }
  return Pool(
      rng, 48, 8, [](size_t i) { return static_cast<int>(i % 3); },
      [&](size_t) { return antecedents[Pick(rng, 24)]; });
}

constexpr const char* kServedDecls = "Dom/1 R/2 P/1 Q/1";
constexpr const char* kHorn =
    "(forall x, y: R(x, y) -> T(x, y)) & "
    "(forall x, y, z: T(x, y) & R(y, z) -> T(x, z))";

Inputs ReadHot(std::mt19937_64& rng) {
  Inputs in;
  in.decls = kServedDecls;
  in.domain = 8;
  in.kb = ServedKb(rng, 8, 8, 19, 8);
  in.reads = HotPool(rng);
  in.writes = QFlips(rng, 8);
  return in;
}

Inputs ReadCold(std::mt19937_64& rng) {
  Inputs in;
  in.decls = kServedDecls;
  in.domain = 12;
  in.kb = ServedKb(rng, 12, 16, 36, 12);
  // One antecedent per request: a second existential step multiplies the
  // worlds again and gives a tail no latency limit could hold.
  in.reads = Pool(
      rng, 4096, 12, [](size_t) { return 1; },
      [&](size_t i) { return ColdAntecedent(rng, 12, i); });
  in.writes = QFlips(rng, 12);
  return in;
}

Inputs WriteRepl(std::mt19937_64& rng) {
  Inputs in;
  in.decls = kServedDecls;
  in.domain = 64;
  // read_hot's request shape over a 64-constant domain: the Q flips touch
  // every constant while the reads stay on the first eight.
  in.kb = ServedKb(rng, 64, 8, 128, 8);
  in.reads = HotPool(rng);
  in.writes = QFlips(rng, 64);
  return in;
}

/// 1024 distinct worlds over {Dom/1, R/2} — one random base and worlds two or
/// three R cells away from it — and the four-sentence rotation that covers
/// every μ strategy: SAT (orient), reference (ground insert), datalog (Horn
/// closure) and definitional.
Inputs TauWorlds(std::mt19937_64& rng) {
  constexpr int kDomain = 8;
  constexpr size_t kWorlds = 1024;
  Inputs in;
  in.domain = kDomain;
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}});
  std::vector<int> all(kDomain);
  for (int i = 0; i < kDomain; ++i) all[i] = i;
  std::vector<bool> base(kDomain * kDomain);
  for (int cell : Choose(rng, kDomain * kDomain, 22)) base[cell] = true;
  // Two and three flips in turn (there are only 64 single flips), so every
  // seed has the same mix.
  std::set<std::vector<int>> flip_sets = {{}};
  std::vector<std::vector<int>> ordered = {{}};  // The base world first.
  while (ordered.size() < kWorlds) {
    std::vector<int> flips =
        Choose(rng, kDomain * kDomain, 2 + static_cast<int>(ordered.size() % 2));
    std::sort(flips.begin(), flips.end());
    if (flip_sets.insert(flips).second) ordered.push_back(std::move(flips));
  }
  std::vector<Database> dbs;
  dbs.reserve(kWorlds);
  for (const std::vector<int>& flips : ordered) {
    std::vector<bool> cells = base;
    for (int f : flips) cells[f] = !cells[f];
    Relation::Builder r(2);
    for (int cell = 0; cell < kDomain * kDomain; ++cell) {
      if (cells[cell]) r.Append({Name(C(cell / kDomain)), Name(C(cell % kDomain))});
    }
    dbs.push_back(*Database::Create(schema, {Unary(all), r.Build()}));
  }
  in.kb = *Knowledgebase::FromDatabases(std::move(dbs));
  in.decls = "Dom/1 R/2";

  int a = Pick(rng, kDomain);
  int b = (a + 1 + Pick(rng, kDomain - 1)) % kDomain;
  const std::vector<std::string> rotation = {
      "forall x, y: (R(x, y) & !R(y, x)) -> (S(x, y) & !S(y, x))",
      "R(" + C(a) + ", " + C(b) + ") & !R(" + C(b) + ", " + C(a) + ")",
      kHorn,
      "forall x: (exists y: R(x, y) & R(y, x)) <-> D(x)",
  };
  for (const std::string& s : rotation) in.writes.push_back("tau{" + s + "}");
  // Reads ask what each rotation sentence would make true.
  const char* heads[] = {"S", "R", "T", "D"};
  std::set<std::string> seen;
  while (in.reads.size() < 16) {
    const size_t s = in.reads.size() % 4;
    Request r;
    r.antecedents = {rotation[s]};
    std::string x = C(Pick(rng, kDomain)), y = C(Pick(rng, kDomain));
    r.consequent = std::string(heads[s]) + "(" + x + (s == 3 ? "" : ", " + y) + ")";
    r.necessarily = in.reads.size() / 4 % 2 == 0;
    if (seen.insert(Key(r)).second) in.reads.push_back(std::move(r));
  }
  return in;
}

}  // namespace

std::string SentenceOf(const std::string& write) {
  return write.substr(4, write.size() - 5);
}

bool IsWorkload(const std::string& name) {
  return name == "read_hot" || name == "read_cold" || name == "write_repl" ||
         name == "tau_worlds";
}

Inputs MakeInputs(const std::string& workload, uint64_t seed) {
  std::mt19937_64 rng = Rng(workload, seed);
  Inputs in;
  if (workload == "read_hot") {
    in = ReadHot(rng);
  } else if (workload == "read_cold") {
    in = ReadCold(rng);
  } else if (workload == "write_repl") {
    in = WriteRepl(rng);
  } else if (workload == "tau_worlds") {
    in = TauWorlds(rng);
  } else {
    std::abort();
  }
  in.workload = workload;
  in.seed = seed;
  in.horn = kHorn;
  return in;
}

}  // namespace kbtbench
