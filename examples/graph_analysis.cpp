/// \file
/// Graph analysis through knowledgebase transformations: Examples 2, 3, 6 and 7
/// of §3 on a small road network. Each query is a composition of τ / ⊓ / ⊔ / π —
/// no special-purpose graph code, just sentences inserted under minimal change.
///
/// Build & run:  cmake --build build && ./build/examples/graph_analysis

#include <cstdio>
#include <string>

#include "core/kbt.h"

namespace {

const char* kReductionSentence =
    "(forall x1, x2: R2(x1, x2) -> R1(x1, x2)) & "
    "(forall x1, x3: (exists x2: R3(x1, x2) & R1(x2, x3)) | R1(x1, x3) "
    "<-> R3(x1, x3)) & "
    "(forall x1, x3: (exists x2: R3(x1, x2) & R2(x2, x3)) | R2(x1, x3) "
    "<-> R3(x1, x3))";

}  // namespace

int main() {
  using namespace kbt;
  Engine engine;

  // A DAG with one redundant shortcut edge a->d.
  Knowledgebase roads = *MakeSingletonKb(
      {{"R1", 2}},
      {{"R1", {{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}, {"a", "d"}}}});
  std::printf("road network: %s\n\n", roads.ToString().c_str());

  // Example 2: all transitive reductions (minimal route maps with the same
  // reachability).
  Knowledgebase reducts = *engine.Apply(
      std::string("tau{ ") + kReductionSentence + " } >> pi[R2]", roads);
  std::printf("Example 2 - transitive reductions (minimal route maps):\n  %s\n\n",
              reducts.ToString().c_str());

  // Example 3: is the edge set {a->d} contained in every reduction? (No — the
  // shortcut is redundant.) The query edge set rides along in R5.
  Knowledgebase with_query = *MakeSingletonKb(
      {{"R1", 2}, {"R5", 2}},
      {{"R1", {{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}, {"a", "d"}}},
       {"R5", {{"a", "d"}}}});
  Knowledgebase verdict = *engine.Apply(
      std::string("tau{ ") + kReductionSentence +
          " } >> pi[R2, R5] >> glb >> "
          "tau{ (forall x1, x2: R5(x1, x2) -> R2(x1, x2)) -> R4() } >> pi[R4]",
      with_query);
  bool in_every = false;
  for (size_t i = 0; i < verdict.size(); ++i) {
    const Database db = verdict.World(i);
    if (db.RelationFor("R4")->Contains(Tuple())) in_every = true;
  }
  std::printf("Example 3 - is a->d in every reduction? %s\n\n",
              in_every ? "yes" : "no (it is a redundant shortcut)");

  // Example 6: parity of the vertex set {a, b, c, d} — even.
  Knowledgebase vertices =
      *MakeSingletonKb({{"R1", 1}}, {{"R1", {{"a"}, {"b"}, {"c"}, {"d"}}}});
  Pipeline parity;
  parity.Tau("forall x1: R1(x1) -> R2(x1) | R3(x1)");
  parity.Tau("forall x1, x2: R2(x1) & R3(x2) -> R4(x1, x2)");
  parity.Tau(
      "(forall x1, x2, x3: R4(x1, x2) & R4(x1, x3) -> x2 = x3) & "
      "(forall x1, x2, x3: R4(x2, x1) & R4(x3, x1) -> x2 = x3)");
  parity.Tau("forall x1, x2: R4(x1, x2) | R4(x2, x1) -> R5(x1)");
  parity.Tau(DifferenceFormula("R1", "R5", "R6", 1));
  Knowledgebase parity_out = *engine.Apply(parity, vertices);
  bool even = false;
  for (size_t i = 0; i < parity_out.size(); ++i) {
    const Database db = parity_out.World(i);
    if (db.RelationFor("R6")->empty()) even = true;
  }
  std::printf("Example 6 - |V| = 4 has even parity? %s\n\n",
              even ? "yes" : "no");

  // Example 7: does the undirected triangle a-b-c have a 3-clique? Insert the
  // bijection-based clique sentence; a world keeping the inputs unchanged
  // witnesses the clique.
  Knowledgebase clique_kb = *MakeSingletonKb(
      {{"R1", 2}, {"R2", 1}},
      {{"R1",
        {{"a", "b"}, {"b", "a"}, {"b", "c"}, {"c", "b"}, {"a", "c"},
         {"c", "a"}}},
       {"R2", {{"s1"}, {"s2"}, {"s3"}}}});
  Formula clique_sentence = *ParseSentence(
      "(forall x1: R2(x1) -> (exists x2: R5(x1, x2))) & "
      "(forall x1: R4(x1) -> (exists x2: R5(x2, x1))) & "
      "(forall x1, x2, x3: R5(x2, x1) & R5(x3, x1) -> x2 = x3) & "
      "(forall x1, x2, x3: R5(x1, x2) & R5(x1, x3) -> x2 = x3) & "
      "(forall x1, x2: R4(x1) & R4(x2) & !(x1 = x2) -> R1(x1, x2)) & "
      "(forall x1, x2: R5(x1, x2) -> R2(x1) & R4(x2))");
  Knowledgebase clique_out = *Tau(clique_sentence, clique_kb);
  bool has_triangle = false;
  for (size_t i = 0; i < clique_out.size(); ++i) {
    const Database db = clique_out.World(i);
    if (*db.RelationFor("R1") == *clique_kb.World(0).RelationFor("R1") &&
        *db.RelationFor("R2") == *clique_kb.World(0).RelationFor("R2")) {
      has_triangle = true;
      Relation r4 = *db.RelationFor("R4");
      std::printf("Example 7 - 3-clique found: %s\n", r4.ToString().c_str());
      break;
    }
  }
  if (!has_triangle) std::printf("Example 7 - no 3-clique\n");
  return 0;
}
