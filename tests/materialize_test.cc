/// \file
/// The materializers μ emits its models through — MaterializeOverlayModel and
/// ModelMaterializer::MaterializeOverlay — against the specification
/// MaterializeModel: for every assignment of the mentioned atoms, each must
/// produce exactly the overlay of MaterializeModel's database against
/// ctx.extended_base, and applying it must rebuild that database.
/// Property-tested over random databases, sentences and assignments
/// (including the all-default and all-flipped corners and nullary relations).

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/mu_internal.h"
#include "core/universe.h"
#include "logic/grounder.h"
#include "logic/parser.h"
#include "testutil.h"

namespace kbt::internal {
namespace {

using testutil::RandomDatabase;
using testutil::RandomSentenceGenerator;

/// Checks MaterializeOverlayModel and every materializer in `materializers`
/// against MaterializeModel for one assignment.
void ExpectOverlaysMatchModel(
    const UpdateContext& ctx, const Grounding& g,
    const std::vector<int>& mentioned,
    const std::vector<const ModelMaterializer*>& materializers,
    const std::function<bool(int)>& value, const std::string& where) {
  StatusOr<Database> expected = MaterializeModel(ctx, g.atoms, mentioned, value);
  ASSERT_TRUE(expected.ok()) << expected.status();
  const WorldOverlay expected_overlay =
      WorldOverlay::FromDiff(ctx.extended_base, *expected);

  std::vector<StatusOr<WorldOverlay>> got;
  got.push_back(MaterializeOverlayModel(ctx, g.atoms, mentioned, value));
  for (const ModelMaterializer* m : materializers) {
    got.push_back(m->MaterializeOverlay(value));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status();
    EXPECT_EQ(*got[i], expected_overlay) << where << " materializer " << i;
    EXPECT_EQ(got[i]->ApplyTo(ctx.extended_base), *expected)
        << where << " materializer " << i;
  }
}

/// Grounds `phi` against `db`'s update context and cross-checks the overlay
/// materializers over `trials` random assignments of the mentioned atoms.
void CrossCheck(const Formula& phi, const Database& db, std::mt19937_64* rng,
                int trials) {
  StatusOr<UpdateContext> ctx = MakeUpdateContext(phi, db);
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  StatusOr<Grounding> g = GroundSentence(phi, ctx->domain, GrounderOptions());
  ASSERT_TRUE(g.ok()) << g.status();
  std::vector<int> mentioned = g->circuit.CollectVars(g->root);

  StatusOr<ModelMaterializer> m = ModelMaterializer::Make(*ctx, g->atoms, mentioned);
  ASSERT_TRUE(m.ok()) << m.status();

  std::bernoulli_distribution coin(0.5);
  for (int t = 0; t < trials + 2; ++t) {
    std::vector<int8_t> assignment(g->atoms.size(), 0);
    if (t == 0) {
      // All false.
    } else if (t == 1) {
      for (int id : mentioned) assignment[static_cast<size_t>(id)] = 1;
    } else {
      for (int id : mentioned) {
        assignment[static_cast<size_t>(id)] = coin(*rng) ? 1 : 0;
      }
    }
    auto value = [&](int id) { return assignment[static_cast<size_t>(id)] != 0; };
    ExpectOverlaysMatchModel(*ctx, *g, mentioned, {&*m}, value,
                             "trial " + std::to_string(t));
  }
}

TEST(MaterializeTest, DeltaMatchesRebuildOnRandomInputs) {
  std::mt19937_64 rng(20260730);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.4);
  for (int iter = 0; iter < 30; ++iter) {
    Database db = RandomDatabase(&rng);
    Formula phi = gen.Generate(3);
    CrossCheck(phi, db, &rng, 6);
  }
}

TEST(MaterializeTest, DeltaMatchesRebuildWithNullaryAndNewRelations) {
  // Nullary relations take the one-possible-tuple fast path; new relations
  // start empty in the extended base, so every true atom is an add.
  std::mt19937_64 rng(7);
  Database db = *[] {
    Schema schema = *Schema::Of({{"Flag", 0}, {"R", 2}});
    Database d(schema);
    Relation::Builder r(2);
    r.Append({Name("a"), Name("b")});
    r.Append({Name("b"), Name("c")});
    return d.WithRelation("R", r.Build());
  }();
  Formula phi = *ParseSentence(
      "(Flag() -> N(a)) & (forall x, y: R(x, y) -> (N(x) | Flag()))");
  CrossCheck(phi, db, &rng, 10);
}

TEST(MaterializeTest, RebuildReusesOneMaterializerAcrossWorlds) {
  // The WorldScratch pattern: one ModelMaterializer object Rebuilt in place
  // for world after world (different databases, different groundings) must
  // behave exactly like a fresh Make per world — warm buffers, same results.
  std::mt19937_64 rng(20260731);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.4);
  std::bernoulli_distribution coin(0.5);
  ModelMaterializer pooled;
  for (int world = 0; world < 20; ++world) {
    Database db = RandomDatabase(&rng);
    Formula phi = gen.Generate(3);
    StatusOr<UpdateContext> ctx = MakeUpdateContext(phi, db);
    ASSERT_TRUE(ctx.ok()) << ctx.status();
    StatusOr<Grounding> g = GroundSentence(phi, ctx->domain, GrounderOptions());
    ASSERT_TRUE(g.ok()) << g.status();
    std::vector<int> mentioned = g->circuit.CollectVars(g->root);

    Status rebuilt = pooled.Rebuild(*ctx, g->atoms, mentioned);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt;
    StatusOr<ModelMaterializer> fresh =
        ModelMaterializer::Make(*ctx, g->atoms, mentioned);
    ASSERT_TRUE(fresh.ok()) << fresh.status();

    for (int t = 0; t < 4; ++t) {
      std::vector<int8_t> assignment(g->atoms.size(), 0);
      for (int id : mentioned) {
        assignment[static_cast<size_t>(id)] = coin(rng) ? 1 : 0;
      }
      auto value = [&](int id) {
        return assignment[static_cast<size_t>(id)] != 0;
      };
      ExpectOverlaysMatchModel(
          *ctx, *g, mentioned, {&*fresh, &pooled}, value,
          "world " + std::to_string(world) + " trial " + std::to_string(t));
    }
  }
}

TEST(MaterializeTest, AllDefaultAssignmentIsTheExtendedBase) {
  // When every mentioned atom keeps its base value, the delta is empty and the
  // result is ctx.extended_base itself.
  std::mt19937_64 rng(9);
  Database db = RandomDatabase(&rng);
  Formula phi = *ParseSentence("forall x: P(x) -> N(x)");
  StatusOr<UpdateContext> ctx = MakeUpdateContext(phi, db);
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  StatusOr<Grounding> g = GroundSentence(phi, ctx->domain, GrounderOptions());
  ASSERT_TRUE(g.ok()) << g.status();
  std::vector<int> mentioned = g->circuit.CollectVars(g->root);
  StatusOr<ModelMaterializer> m = ModelMaterializer::Make(*ctx, g->atoms, mentioned);
  ASSERT_TRUE(m.ok()) << m.status();

  auto base_value = [&](int id) {
    const GroundAtom& atom = g->atoms.AtomOf(id);
    const Relation* r = ctx->extended_base.FindRelation(atom.relation);
    return r != nullptr && r->Contains(atom.tuple);
  };
  ExpectOverlaysMatchModel(*ctx, *g, mentioned, {&*m}, base_value, "default");
  StatusOr<WorldOverlay> got = m->MaterializeOverlay(base_value);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->identity());
  EXPECT_EQ(*MaterializeModel(*ctx, g->atoms, mentioned, base_value),
            ctx->extended_base);
}

}  // namespace
}  // namespace kbt::internal
