/// \file
/// What a cached grounding and a filled sentence entry of the serving cache
/// bank hold on the heap, and whether the bank's byte meter reads it. This
/// binary replaces the global operator new and delete with versions that
/// prefix each block with its requested size and count live blocks and
/// bytes. The sentences have kbtbench's read_cold shape: a 16-world kb over
/// twelve constants and existential antecedents over a relation new to it,
/// so every τ takes the SAT route through the entry's frozen prefix.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/tau.h"
#include "exec/ground_cache.h"
#include "logic/parser.h"
#include "serve/cache_bank.h"

namespace {

// The size prefix keeps every returned pointer 16-byte aligned.
constexpr size_t kPrefix = 16;
std::atomic<int64_t> live_blocks{0};
std::atomic<int64_t> live_bytes{0};

void* AllocateCounted(size_t size) {
  void* p = std::malloc(size + kPrefix);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(p) = size;
  live_blocks.fetch_add(1, std::memory_order_relaxed);
  live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return static_cast<char*>(p) + kPrefix;
}

void FreeCounted(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kPrefix;
  live_blocks.fetch_sub(1, std::memory_order_relaxed);
  live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(block)),
                       std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

// Every plain, array, sized and nothrow variant is replaced, so none of the
// runtime's own versions (a sanitizer's included) frees a counted block.
void* operator new(size_t size) { return AllocateCounted(size); }
void* operator new[](size_t size) { return AllocateCounted(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return AllocateCounted(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { FreeCounted(p); }
void operator delete[](void* p) noexcept { FreeCounted(p); }
void operator delete(void* p, size_t) noexcept { FreeCounted(p); }
void operator delete[](void* p, size_t) noexcept { FreeCounted(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  FreeCounted(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  FreeCounted(p);
}

namespace kbt {
namespace {

/// Live heap blocks and requested bytes.
struct Census {
  int64_t blocks = 0;
  int64_t bytes = 0;
};

Census Live() {
  return {live_blocks.load(std::memory_order_relaxed),
          live_bytes.load(std::memory_order_relaxed)};
}

/// What was allocated since `before` and is still live.
Census Since(Census before) {
  Census now = Live();
  return {now.blocks - before.blocks, now.bytes - before.bytes};
}

std::string C(int i) { return "n" + std::to_string(i); }

Relation Unary(const std::vector<int>& members) {
  Relation::Builder b(1);
  for (int m : members) b.Append({Name(C(m))});
  return b.Build();
}

/// `k` distinct values of [0, n), in random order.
std::vector<int> Choose(std::mt19937_64& rng, int n, int k) {
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(static_cast<size_t>(k));
  return all;
}

constexpr int kConstants = 12;

/// read_cold's kb: Dom pins all twelve constants, R holds 36 of the 144
/// cells and Q half the constants in every world, and the 16 worlds differ
/// in P, each a distinct half of the constants.
Knowledgebase ColdKb(std::mt19937_64& rng) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}, {"P", 1}, {"Q", 1}});
  Relation::Builder r(2);
  for (int cell : Choose(rng, kConstants * kConstants, 36)) {
    r.Append({Name(C(cell / kConstants)), Name(C(cell % kConstants))});
  }
  Relation all = Unary(Choose(rng, kConstants, kConstants));
  Relation edges = r.Build();
  Relation q = Unary(Choose(rng, kConstants, kConstants / 2));
  std::set<std::vector<int>> seen;
  std::vector<Database> dbs;
  while (dbs.size() < 16) {
    std::vector<int> p = Choose(rng, kConstants, kConstants / 2);
    std::sort(p.begin(), p.end());
    if (!seen.insert(p).second) continue;
    dbs.push_back(*Database::Create(schema, {all, edges, Unary(p), q}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// `count` distinct read_cold antecedents, the two shapes in turn. S is new
/// to the kb, so no world satisfies one already.
std::vector<Formula> ColdAntecedents(std::mt19937_64& rng, size_t count) {
  std::set<std::string> seen;
  std::vector<Formula> out;
  while (out.size() < count) {
    std::string a = C(static_cast<int>(rng() % kConstants));
    std::string b = C(static_cast<int>(rng() % kConstants));
    std::string c = C(static_cast<int>(rng() % kConstants));
    std::string text =
        out.size() % 2 == 0
            ? "exists x: R(" + a + ", x) & S(x, " + b + ") & !Q(" + c + ")"
            : "exists x: (R(" + a + ", x) | Q(x)) & S(x, " + b + ") & !P(" +
                  c + ")";
    if (!seen.insert(text).second) continue;
    out.push_back(*ParseSentence(text));
  }
  return out;
}

/// Runs one τ of `entry`'s sentence over `kb` through the entry's caches, as
/// a served read does, and drops the result.
void Fill(serve::SentenceCaches& entry, const Knowledgebase& kb) {
  TauOptions options;
  options.ground_cache = &entry.ground;
  options.cnf_cache = &entry.cnf;
  StatusOr<Knowledgebase> out = Tau(entry.sentence, kb, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

constexpr size_t kEntries = 64;

TEST(GroundingStorageTest, CachedColdGroundingIsCompact) {
  std::mt19937_64 rng(1);
  const Knowledgebase kb = ColdKb(rng);
  const std::vector<Formula> antecedents = ColdAntecedents(rng, kEntries);
  const std::vector<Value> domain = kb.World(0).ActiveDomain();
  ASSERT_EQ(domain.size(), static_cast<size_t>(kConstants));
  for (const Formula& phi : antecedents) {
    const Census before = Live();
    auto g = exec::MakeCachedGrounding(phi, domain, GrounderOptions());
    ASSERT_TRUE(g.ok());
    const Census held = Since(before);
    EXPECT_LE(held.blocks, 16) << held.bytes << " bytes";
    EXPECT_LE(held.bytes, 4096) << held.blocks << " blocks";
  }
}

TEST(GroundingStorageTest, FilledEntriesHoldWhatTheBankMeterReads) {
  std::mt19937_64 rng(1);
  const Knowledgebase kb = ColdKb(rng);
  std::vector<Formula> antecedents = ColdAntecedents(rng, kEntries + 1);
  {
    // The first τ of the process allocates what later calls reuse.
    serve::SentenceCaches warm;
    warm.sentence = antecedents.back();
    Fill(warm, kb);
  }
  antecedents.pop_back();
  std::vector<std::unique_ptr<serve::SentenceCaches>> entries;
  for (const Formula& phi : antecedents) {
    entries.push_back(std::make_unique<serve::SentenceCaches>());
    entries.back()->sentence = phi;
  }
  const Census before = Live();
  for (auto& entry : entries) Fill(*entry, kb);
  const Census held = Since(before);
  size_t metered = 0;
  for (const auto& entry : entries) metered += entry->ApproxBytes();

  // At most 12 KB per filled entry.
  EXPECT_LE(held.bytes, static_cast<int64_t>(kEntries * 12 * 1024));
  // The meter `--cache-bytes` budgets by, bookkeeping included, reads
  // within 5% of it.
  EXPECT_NEAR(static_cast<double>(metered), static_cast<double>(held.bytes),
              0.05 * static_cast<double>(held.bytes))
      << held.blocks << " blocks";
}

}  // namespace
}  // namespace kbt
