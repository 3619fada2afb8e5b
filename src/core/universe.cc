#include "core/universe.h"

#include "eval/model_check.h"
#include "logic/analysis.h"

namespace kbt {

StatusOr<UpdateContext> MakeUpdateContext(const Formula& sentence,
                                          const Database& db) {
  if (!IsSentence(sentence)) {
    return Status::InvalidArgument("update requires a sentence (no free variables)");
  }
  UpdateContext ctx;
  KBT_ASSIGN_OR_RETURN(Schema formula_schema, SchemaOf(sentence));
  KBT_ASSIGN_OR_RETURN(ctx.schema, db.schema().Union(formula_schema));
  ctx.domain = ActiveDomain(db, sentence);
  KBT_ASSIGN_OR_RETURN(ctx.extended_base, db.ExtendTo(ctx.schema));
  return ctx;
}

}  // namespace kbt
