#include "core/expr.h"

#include "eval/model_check.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace kbt {

std::string TransformStep::ToString() const {
  switch (kind) {
    case Kind::kTau:
      return "tau{ " + kbt::ToString(sentence) + " }";
    case Kind::kFilter:
      return "filter{ " + kbt::ToString(sentence) + " }";
    case Kind::kGlb:
      return "glb";
    case Kind::kLub:
      return "lub";
    case Kind::kProject: {
      std::string out = "pi[";
      for (size_t i = 0; i < projection.size(); ++i) {
        if (i > 0) out += ", ";
        out += NameOf(projection[i]);
      }
      out += "]";
      return out;
    }
  }
  return "?";
}

Pipeline& Pipeline::Tau(Formula sentence) {
  steps_.push_back(TransformStep{TransformStep::Kind::kTau, std::move(sentence), {}});
  return *this;
}

Pipeline& Pipeline::Tau(std::string_view sentence_text) {
  StatusOr<Formula> parsed = ParseSentence(sentence_text);
  if (!parsed.ok()) {
    if (deferred_error_.ok()) deferred_error_ = parsed.status();
    return *this;
  }
  return Tau(std::move(*parsed));
}

Pipeline& Pipeline::Glb() {
  steps_.push_back(TransformStep{TransformStep::Kind::kGlb, nullptr, {}});
  return *this;
}

Pipeline& Pipeline::Lub() {
  steps_.push_back(TransformStep{TransformStep::Kind::kLub, nullptr, {}});
  return *this;
}

Pipeline& Pipeline::Project(std::vector<std::string> names) {
  std::vector<Symbol> symbols;
  symbols.reserve(names.size());
  for (const std::string& n : names) symbols.push_back(Name(n));
  return Project(std::move(symbols));
}

Pipeline& Pipeline::Project(std::vector<Symbol> symbols) {
  steps_.push_back(
      TransformStep{TransformStep::Kind::kProject, nullptr, std::move(symbols)});
  return *this;
}

Pipeline& Pipeline::Filter(Formula sentence) {
  steps_.push_back(
      TransformStep{TransformStep::Kind::kFilter, std::move(sentence), {}});
  return *this;
}

Pipeline& Pipeline::Filter(std::string_view sentence_text) {
  StatusOr<Formula> parsed = ParseSentence(sentence_text);
  if (!parsed.ok()) {
    if (deferred_error_.ok()) deferred_error_ = parsed.status();
    return *this;
  }
  return Filter(std::move(*parsed));
}

StatusOr<Knowledgebase> Pipeline::Apply(const Knowledgebase& kb,
                                        const MuOptions& options,
                                        PipelineStats* stats) const {
  TauOptions tau_options;
  tau_options.mu = options;
  return Apply(kb, tau_options, stats);
}

StatusOr<Knowledgebase> Pipeline::Apply(const Knowledgebase& kb,
                                        const TauOptions& options,
                                        PipelineStats* stats) const {
  KBT_RETURN_IF_ERROR(deferred_error_);
  // Each step reads `in`: the caller's kb until a step produces one, so the
  // input is never copied.
  const Knowledgebase* in = &kb;
  Knowledgebase current;
  for (const TransformStep& step : steps_) {
    StepTrace trace;
    trace.step = step.ToString();
    trace.input_databases = in->size();
    switch (step.kind) {
      case TransformStep::Kind::kTau: {
        TauStats tau_stats;
        KBT_ASSIGN_OR_RETURN(current,
                             kbt::Tau(step.sentence, *in, options, &tau_stats));
        trace.mu = tau_stats.mu;
        break;
      }
      case TransformStep::Kind::kGlb:
        current = in->Glb();
        break;
      case TransformStep::Kind::kLub:
        current = in->Lub();
        break;
      case TransformStep::Kind::kFilter: {
        // Keep surviving worlds by index: SelectWorlds shares the base and
        // overlays (a subsequence of a canonical sequence is canonical), so
        // no world is copied, re-diffed or re-sorted.
        std::vector<size_t> kept;
        for (size_t i = 0; i < in->size(); ++i) {
          Database db = in->World(i);
          KBT_ASSIGN_OR_RETURN(bool holds, Satisfies(db, step.sentence));
          if (holds) kept.push_back(i);
        }
        current = in->SelectWorlds(kept);
        break;
      }
      case TransformStep::Kind::kProject: {
        KBT_ASSIGN_OR_RETURN(current, in->ProjectTo(step.projection));
        break;
      }
    }
    in = &current;
    trace.output_databases = current.size();
    if (stats != nullptr) stats->steps.push_back(std::move(trace));
  }
  if (steps_.empty()) return kb;
  return current;
}

std::string Pipeline::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (i > 0) out += " >> ";
    out += steps_[i].ToString();
  }
  return out;
}

namespace {

std::vector<Symbol> FreshVars(size_t arity) {
  std::vector<Symbol> vars;
  vars.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    vars.push_back(Name("x" + std::to_string(i + 1)));
  }
  return vars;
}

std::vector<Term> VarTerms(const std::vector<Symbol>& vars) {
  std::vector<Term> terms;
  terms.reserve(vars.size());
  for (Symbol v : vars) terms.push_back(Term::Var(v));
  return terms;
}

}  // namespace

Formula CopyFormula(std::string_view from, std::string_view to, size_t arity) {
  std::vector<Symbol> vars = FreshVars(arity);
  Formula body = Iff(Atom(from, VarTerms(vars)), Atom(to, VarTerms(vars)));
  return Forall(vars, std::move(body));
}

Formula DifferenceFormula(std::string_view a, std::string_view b,
                          std::string_view to, size_t arity) {
  std::vector<Symbol> vars = FreshVars(arity);
  Formula body = Iff(And(Atom(a, VarTerms(vars)), Not(Atom(b, VarTerms(vars)))),
                     Atom(to, VarTerms(vars)));
  return Forall(vars, std::move(body));
}

}  // namespace kbt
