/// \file
/// WorldDomains against the materialized worlds: on random knowledgebases,
/// every world's domain read off the base's value counts and the world's
/// overlay must equal World(w).ActiveDomain() ∪ the extra values.

#include "rel/world_domains.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "rel/knowledgebase.h"

namespace kbt {
namespace {

constexpr int kValues = 6;

Value V(int i) { return Name("wd" + std::to_string(i)); }

/// A database over R/2, P/1 and the nullary F on wd0..wd5. Cells are R's
/// 36 pairs, then P's 6 values, then F.
constexpr int kCells = kValues * kValues + kValues + 1;

Database FromCells(const std::vector<bool>& cells) {
  Schema schema = *Schema::Of({{"R", 2}, {"P", 1}, {"F", 0}});
  Relation::Builder r(2), p(1), f(0);
  for (int c = 0; c < kValues * kValues; ++c) {
    if (cells[c]) r.Append({V(c / kValues), V(c % kValues)});
  }
  for (int c = 0; c < kValues; ++c) {
    if (cells[kValues * kValues + c]) p.Append({V(c)});
  }
  if (cells[kCells - 1]) f.Append(TupleView());
  return *Database::Create(schema, {r.Build(), p.Build(), f.Build()});
}

std::vector<Value> Expected(const Database& world,
                            const std::vector<Value>& extra) {
  std::vector<Value> domain = world.ActiveDomain();
  domain.insert(domain.end(), extra.begin(), extra.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

bool Holds(const std::vector<Value>& values, Value v) {
  return std::binary_search(values.begin(), values.end(), v);
}

TEST(WorldDomainsTest, MatchesEachMaterializedWorldsActiveDomain) {
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<int> world_count(1, 8);
  std::uniform_int_distribution<int> cell(0, kCells - 1);
  std::uniform_int_distribution<int> flips(1, 4);
  std::uniform_real_distribution<double> density(0.0, 0.25);
  std::bernoulli_distribution coin(0.5);
  std::bernoulli_distribution rare(0.15);
  int gains = 0, losses = 0, constant_deleted = 0, nullary = 0;
  int empty_bases = 0, one_world = 0;
  for (int iter = 0; iter < 400; ++iter) {
    // Sparse bases, so most values occur a few times and a flip or two can
    // delete a value's last occurrence; every tenth base is empty.
    std::vector<bool> base_cells(kCells);
    const double d = iter % 10 == 0 ? 0.0 : density(rng);
    std::bernoulli_distribution present(d);
    for (int c = 0; c < kCells; ++c) base_cells[c] = present(rng);
    auto base = std::make_shared<const Database>(FromCells(base_cells));
    std::vector<WorldOverlay> overlays;
    for (int w = world_count(rng); w > 0; --w) {
      std::vector<bool> cells = base_cells;
      for (int f = flips(rng); f > 0; --f) cells[cell(rng)].flip();
      overlays.push_back(WorldOverlay::FromDiff(*base, FromCells(cells)));
    }
    Knowledgebase kb = *Knowledgebase::FromBaseAndOverlays(base, overlays);
    ASSERT_EQ(kb.base(), base);
    // The extra values: some of wd0..wd5, and now and then one that no
    // world holds.
    std::vector<Value> extra;
    for (int v = 0; v < kValues; ++v) {
      if (rare(rng)) extra.push_back(V(v));
    }
    if (coin(rng)) extra.push_back(Name("wd_extra"));
    std::shuffle(extra.begin(), extra.end(), rng);

    WorldDomains domains(*base, extra);
    const std::vector<Value> base_domain = Expected(*base, extra);
    ASSERT_EQ(domains.base_domain(), base_domain) << "iter " << iter;
    const std::vector<Value> base_values = base->ActiveDomain();
    empty_bases += base_values.empty();
    one_world += kb.size() == 1;
    for (size_t w = 0; w < kb.size(); ++w) {
      const Database world = kb.World(w);
      const std::vector<Value> expected = Expected(world, extra);
      std::vector<Value> own;
      const std::vector<Value>& got = domains.Of(kb.overlays()[w], &own);
      EXPECT_EQ(got, expected) << "iter " << iter << " world " << w;
      // The shared vector exactly when the world's domain is domain0.
      EXPECT_EQ(&got == &domains.base_domain(), expected == base_domain)
          << "iter " << iter << " world " << w;

      const std::vector<Value> values = world.ActiveDomain();
      for (Value v : expected) gains += !Holds(base_domain, v);
      for (Value v : base_domain) losses += !Holds(expected, v);
      for (Value v : extra) {
        constant_deleted += Holds(base_values, v) && !Holds(values, v);
      }
      nullary += kb.overlays()[w].FindDelta(2) != nullptr;
    }
  }
  // Every case the derivation must get right did occur.
  EXPECT_GT(gains, 0);
  EXPECT_GT(losses, 0);
  EXPECT_GT(constant_deleted, 0);
  EXPECT_GT(nullary, 0);
  EXPECT_GT(empty_bases, 0);
  EXPECT_GT(one_world, 0);
}

TEST(WorldDomainsTest, ValueRepeatedInOneTupleVanishesWithIt) {
  // wd1 occurs twice, both times in R(wd1, wd1): deleting that one tuple
  // deletes both occurrences. wd0 survives the same deletion.
  Database base = FromCells([] {
    std::vector<bool> cells(kCells);
    cells[1 * kValues + 1] = true;  // R(wd1, wd1)
    cells[0 * kValues + 2] = true;  // R(wd0, wd2)
    cells[kValues * kValues + 0] = true;  // P(wd0)
    return cells;
  }());
  std::vector<bool> cells(kCells);
  cells[0 * kValues + 2] = true;
  cells[kValues * kValues + 0] = true;
  const WorldOverlay overlay = WorldOverlay::FromDiff(base, FromCells(cells));
  WorldDomains domains(base, {});
  std::vector<Value> own;
  const std::vector<Value>& got = domains.Of(overlay, &own);
  std::vector<Value> expected = {V(0), V(2)};
  std::sort(expected.begin(), expected.end());  // Symbol order, not names.
  EXPECT_EQ(got, expected);
  EXPECT_EQ(&got, &own);
  // As an extra value, wd1 stays in every world's domain.
  WorldDomains pinned(base, {V(1)});
  EXPECT_EQ(&pinned.Of(overlay, &own), &pinned.base_domain());
}

}  // namespace
}  // namespace kbt
