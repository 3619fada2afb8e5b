/// \file
/// A small deductive database through knowledgebase transformations.
///
/// Two of the paper's §2.1 observations made executable:
///  * a stratified Datalog program is evaluated by "sequentially updating the
///    database with the strata of the program in their hierarchical order"
///    ([ABW88] remark) — InsertStratified does exactly that through τ;
///  * hypothetical queries are expressible through updates ([Bon88], [GM95],
///    Example 4) — Counterfactual asks "what would follow if ...".
///
/// Build & run:  cmake --build build && ./build/examples/deductive

#include <cstdio>

#include "core/kbt.h"
#include "datalog/parser.h"

int main() {
  using namespace kbt;

  // A dependency graph of services: calls(X, Y) = X depends on Y.
  Knowledgebase kb = *MakeSingletonKb(
      {{"service", 1}, {"calls", 2}},
      {{"service", {{"web"}, {"auth"}, {"db"}, {"cache"}, {"batch"}}},
       {"calls",
        {{"web", "auth"}, {"web", "cache"}, {"auth", "db"}, {"cache", "db"}}}});
  std::printf("services and call graph:\n  %s\n\n",
              FormatKnowledgebase(kb).c_str());

  // A stratified program: transitive dependencies, then (negation!) the
  // self-contained services that depend on nothing at all.
  datalog::Program program = *datalog::ParseProgram(R"(
    depends(X, Y) :- calls(X, Y).
    depends(X, Z) :- depends(X, Y), calls(Y, Z).
    standalone(X) :- service(X), !depends(X, X), !calls(X, X).
    leaf(X)       :- service(X), !haschild(X).
    haschild(X)   :- calls(X, Y).
  )");
  Knowledgebase derived = *InsertStratified(program, kb);
  const Database world = derived.World(0);
  std::printf("after inserting the program stratum by stratum (the [ABW88] "
              "remark):\n");
  std::printf("  depends    = %s\n", world.RelationFor("depends")->ToString().c_str());
  std::printf("  leaf       = %s\n", world.RelationFor("leaf")->ToString().c_str());
  std::printf("  standalone = %s\n\n",
              world.RelationFor("standalone")->ToString().c_str());

  // Hypothetical query: if batch started calling web, would batch (transitively)
  // depend on db? Ask the counterfactual over the *derived* knowledgebase by
  // re-deriving under the hypothesis: nested antecedents chain updates.
  std::vector<Formula> chain = {
      *ParseSentence("calls(batch, web)"),
      // Re-derive the affected closure fragment hypothetically.
      *ParseSentence("forall x, y, z: (calls(x, y) | (Dep2(x, z) & calls(z, y)))"
                     " -> Dep2(x, y)"),
  };
  bool would_depend = *NestedCounterfactual(
      kb, chain, *ParseSentence("Dep2(batch, db)"), Modality::kNecessarily);
  std::printf("counterfactual: if batch called web, batch would depend on db? "
              "%s\n\n", would_depend ? "yes" : "no");

  // And a certainty query after an indefinite fault report: one of auth/cache
  // is down; which services CERTAINLY still have all direct dependencies up?
  Engine engine;
  Knowledgebase after_alarm =
      *engine.Insert("Down(auth) | Down(cache)", derived);
  Knowledgebase ok_services = *engine.Apply(
      "tau{ forall x: service(x) & "
      "(forall y: calls(x, y) -> !Down(y)) -> AllUp(x) } >> glb >> pi[AllUp]",
      after_alarm);
  std::printf("certainly unaffected (direct deps all up) after the alarm:\n  %s\n",
              ok_services.World(0).RelationFor("AllUp")->ToString().c_str());
  return 0;
}
