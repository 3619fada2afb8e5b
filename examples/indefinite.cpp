/// \file
/// Indefinite information: disjunctive updates create multiple possible worlds
/// ([AbG85], cited in §1); ⊓ and ⊔ then answer certainty and possibility
/// queries over them — the "recursively indefinite database" flavor of queries
/// the introduction promises.
///
/// Scenario: a sensor reports that SOME server in a cluster failed, but not
/// which. Later reports narrow it down. Certain/possible failure sets evolve.
///
/// Build & run:  cmake --build build && ./build/examples/indefinite

#include <cstdio>

#include "core/kbt.h"

namespace {

void Report(const kbt::Knowledgebase& kb, const char* when) {
  kbt::Knowledgebase certain = kb.Glb();
  kbt::Knowledgebase possible = kb.Lub();
  std::printf("%s\n  worlds:   %zu\n  certain:  %s\n  possible: %s\n\n", when,
              kb.size(),
              certain.World(0).RelationFor("Failed")->ToString().c_str(),
              possible.World(0).RelationFor("Failed")->ToString().c_str());
}

}  // namespace

int main() {
  using namespace kbt;
  Engine engine;

  Knowledgebase kb = *MakeSingletonKb({{"Failed", 1}}, {});

  // Alarm: one of the three web servers failed.
  kb = *engine.Insert("Failed(web1) | Failed(web2) | Failed(web3)", kb);
  Report(kb, "after the alarm (one of web1..web3 failed):");

  // A second, independent alarm on the database tier.
  kb = *engine.Insert("Failed(db1) | Failed(db2)", kb);
  Report(kb, "after the database-tier alarm:");

  // A probe confirms web2 is healthy: delete it from every world.
  kb = *engine.Insert("!Failed(web2)", kb);
  Report(kb, "after confirming web2 is healthy:");

  // A probe confirms db1 failed for certain.
  kb = *engine.Insert("Failed(db1)", kb);
  Report(kb, "after confirming db1 failed:");

  // Hypothetical: if web1 were to fail now, would db1 still be the only
  // certain failure? Counterfactual via a nested transformation.
  Knowledgebase hypo = *engine.Apply("tau{ Failed(web1) } >> glb", kb);
  std::printf("hypothetically failing web1, the certain set becomes:\n  %s\n",
              hypo.World(0).RelationFor("Failed")->ToString().c_str());
  return 0;
}
