#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rel/knowledgebase.h"
#include "store/checkpoint.h"

namespace kbt {
namespace {

Database Db(std::initializer_list<std::initializer_list<std::string_view>> tuples) {
  return *MakeDatabase({{"R", 2}}, {{"R", tuples}});
}

TEST(KnowledgebaseTest, FromDatabasesDedupsAndSorts) {
  Database a = Db({{"a", "b"}});
  Database b = Db({{"b", "c"}});
  auto kb = Knowledgebase::FromDatabases({b, a, a});
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->size(), 2u);
  EXPECT_TRUE(kb->Contains(a));
  EXPECT_TRUE(kb->Contains(b));
}

TEST(KnowledgebaseTest, FromDatabasesAnchorsTheSmallestMemberInAnyOrder) {
  // The base is the smallest member (the first world in canonical order),
  // whatever order the members arrive in and however often each repeats, so
  // every permutation yields the same base and the same checkpoint bytes.
  std::vector<Database> members = {Db({{"b", "c"}}), Db({{"a", "b"}}),
                                   Db({{"a", "b"}, {"c", "d"}}), Db({}),
                                   Db({{"a", "b"}}), Db({})};
  std::sort(members.begin(), members.end());
  Knowledgebase sorted = *Knowledgebase::FromDatabases(members);
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(*sorted.base(), members.front());
  EXPECT_EQ(sorted.World(0), members.front());
  const std::string bytes = store::EncodeCheckpoint(sorted, 1);
  size_t permutations = 0;
  do {
    Knowledgebase kb = *Knowledgebase::FromDatabases(members);
    ASSERT_EQ(*kb.base(), *sorted.base()) << "permutation " << permutations;
    ASSERT_EQ(store::EncodeCheckpoint(kb, 1), bytes)
        << "permutation " << permutations;
    ++permutations;
  } while (std::next_permutation(members.begin(), members.end()));
  EXPECT_EQ(permutations, 180u);  // 6! / (2! · 2!) distinct orders.
}

TEST(KnowledgebaseTest, MixedSchemasRejected) {
  Database a = Db({{"a", "b"}});
  Database other = *MakeDatabase({{"S", 1}}, {});
  EXPECT_FALSE(Knowledgebase::FromDatabases({a, other}).ok());
}

TEST(KnowledgebaseTest, EmptyVsSingletonEmptyDatabase) {
  // An empty kb (inconsistent: no possible worlds) is NOT the kb containing one
  // empty database.
  Knowledgebase none(*Schema::Of({{"R", 2}}));
  Knowledgebase one = Knowledgebase::Singleton(Db({}));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(one.size(), 1u);
  EXPECT_NE(none, one);
}

TEST(KnowledgebaseTest, GlbLubMatchPaperExample) {
  // §2: kb = {(<{a1a2, a1a4}>), (<{a1a4, a2a3}>)};
  // ⊓(kb) = {<{a1a4}>}, ⊔(kb) = {<{a1a2, a2a3, a1a4}>}.
  Database d1 = Db({{"a1", "a2"}, {"a1", "a4"}});
  Database d2 = Db({{"a1", "a4"}, {"a2", "a3"}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({d1, d2});
  Knowledgebase glb = kb.Glb();
  ASSERT_EQ(glb.size(), 1u);
  EXPECT_EQ(*glb.World(0).RelationFor("R"), MakeRelation(2, {{"a1", "a4"}}));
  Knowledgebase lub = kb.Lub();
  ASSERT_EQ(lub.size(), 1u);
  EXPECT_EQ(*lub.World(0).RelationFor("R"),
            MakeRelation(2, {{"a1", "a2"}, {"a1", "a4"}, {"a2", "a3"}}));
}

TEST(KnowledgebaseTest, GlbLubOnEmptyAndSingleton) {
  Knowledgebase none(*Schema::Of({{"R", 2}}));
  EXPECT_TRUE(none.Glb().empty());
  EXPECT_TRUE(none.Lub().empty());
  Knowledgebase one = Knowledgebase::Singleton(Db({{"a", "b"}}));
  EXPECT_EQ(one.Glb(), one);
  EXPECT_EQ(one.Lub(), one);
}

TEST(KnowledgebaseTest, UnionWith) {
  Knowledgebase kb1 = Knowledgebase::Singleton(Db({{"a", "b"}}));
  Knowledgebase kb2 = *Knowledgebase::FromDatabases({Db({{"a", "b"}}), Db({})});
  Knowledgebase u = *kb1.UnionWith(kb2);
  EXPECT_EQ(u.size(), 2u);
  // Empty operands.
  Knowledgebase none;
  EXPECT_EQ(*none.UnionWith(kb1), kb1);
  EXPECT_EQ(*kb1.UnionWith(none), kb1);
}

TEST(KnowledgebaseTest, ProjectTo) {
  Database db = *MakeDatabase({{"R", 2}, {"S", 1}},
                              {{"R", {{"a", "b"}}}, {"S", {{"c"}}}});
  Knowledgebase kb = Knowledgebase::Singleton(db);
  Knowledgebase p = *kb.ProjectTo({Name("S")});
  EXPECT_EQ(p.schema().size(), 1u);
  EXPECT_EQ(p.World(0).RelationFor("S")->size(), 1u);
  // Projection can merge worlds that agree on the kept relations.
  Database db2 = *MakeDatabase({{"R", 2}, {"S", 1}},
                               {{"R", {{"x", "y"}}}, {"S", {{"c"}}}});
  Knowledgebase two = *Knowledgebase::FromDatabases({db, db2});
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(two.ProjectTo({Name("S")})->size(), 1u);
}

TEST(KnowledgebaseTest, ExtendTo) {
  Knowledgebase kb = Knowledgebase::Singleton(Db({{"a", "b"}}));
  Schema super = *Schema::Of({{"R", 2}, {"T", 1}});
  Knowledgebase big = *kb.ExtendTo(super);
  EXPECT_EQ(big.schema(), super);
  EXPECT_TRUE(big.World(0).RelationFor("T")->empty());
}

}  // namespace
}  // namespace kbt
