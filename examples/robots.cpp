/// \file
/// The Venus robots (Examples 1.1 and 4): update vs. revision, and hypothetical
/// (counterfactual) queries.
///
/// Two robot vehicles V and W orbit Venus. A garbled message said one of them
/// landed: kb = { {v}, {w} }. Then V is commanded to land and confirms. What do
/// we now know about W?
///
///   * AGM-style *revision* (a static world) keeps only the worlds that already
///     satisfied "V landed" — and wrongly concludes W is still orbiting.
///   * KM *update* (the world changed) updates each world minimally — leaving
///     W's status open, the answer the paper defends.
///
/// Build & run:  cmake --build build && ./build/examples/robots

#include <cstdio>

#include "baseline/revision.h"
#include "core/kbt.h"

int main() {
  using namespace kbt;

  Database has_v = *MakeDatabase({{"R1", 1}}, {{"R1", {{"v"}}}});
  Database has_w = *MakeDatabase({{"R1", 1}}, {{"R1", {{"w"}}}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({has_v, has_w});
  std::printf("initial knowledgebase (one of V, W landed):\n  %s\n\n",
              kb.ToString().c_str());

  Formula v_landed = *ParseSentence("R1(v)");

  // Update: the world changed (V really landed just now).
  Knowledgebase updated = *Tau(v_landed, kb);
  std::printf("update with \"V landed\" (Katsuno-Mendelzon, Winslett order):\n"
              "  %s\n", updated.ToString().c_str());
  Knowledgebase lub = updated.Lub();
  bool w_possible = lub.World(0).RelationFor("R1")->Contains(
      Tuple{Name("w")});
  std::printf("  => is W's landing still possible? %s (the paper's answer)\n\n",
              w_possible ? "yes" : "no");

  // Revision: treating the message as information about a static world.
  Knowledgebase revised = *baseline::Revise(v_landed, kb);
  std::printf("AGM-style revision with the same sentence:\n  %s\n",
              revised.ToString().c_str());
  bool w_in_revised = false;
  for (size_t i = 0; i < revised.size(); ++i) {
    const Database db = revised.World(i);
    if (db.RelationFor("R1")->Contains(Tuple{Name("w")})) w_in_revised = true;
  }
  std::printf("  => revision concludes W %s landed — Example 1.1 explains why "
              "that is wrong for a changing world.\n\n",
              w_in_revised ? "may have" : "has NOT");

  // Counterfactual query (Example 4): "if V had landed, would W necessarily be
  // orbiting?" — evaluated as ⊔ τ_{R1(v)}(kb) and checking for w.
  Engine engine;
  Knowledgebase counterfactual = *engine.Apply("tau{ R1(v) } >> lub", kb);
  bool w_in_all = counterfactual.World(0).RelationFor("R1")->Contains(
      Tuple{Name("w")});
  std::printf("counterfactual \"V landed > W still orbiting\": %s\n",
              w_in_all ? "no - some world has W landed" : "yes");

  // Right-nested counterfactual (A > (B > C)) via nested insertions.
  Knowledgebase nested = *Tau(*ParseSentence("R1(w)"), updated);
  std::printf("nested counterfactual (V landed > (W landed > ...)):\n  %s\n",
              nested.ToString().c_str());
  return 0;
}
