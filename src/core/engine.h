#ifndef KBT_CORE_ENGINE_H_
#define KBT_CORE_ENGINE_H_

/// \file
/// Convenience facade over the transformation language: parse-and-apply with one
/// options object, plus helpers for building databases and knowledgebases from
/// string literals. Examples and benchmarks go through this API.

#include <memory>
#include <string_view>

#include "base/status.h"
#include "core/expr.h"
#include "core/expr_parser.h"
#include "core/mu.h"
#include "rel/knowledgebase.h"

namespace kbt::exec {
class ThreadPool;
}  // namespace kbt::exec

namespace kbt {

struct EngineOptions {
  MuOptions mu;
  /// Width of τ's world fan-out (see TauOptions::threads): the calling
  /// thread plus tau_threads − 1 helpers. 1 = sequential, 0 = one per
  /// hardware thread.
  size_t tau_threads = 1;
};

/// High-level entry point: owns options, parses expressions, applies them.
/// When tau_threads resolves to a width above one, the constructor starts one
/// persistent exec::ThreadPool and the engine lends it to every τ step — a
/// serving loop calling Apply repeatedly pays the thread spawn once, not per
/// call. The pool's tau_threads − 1 helpers sleep while no pass runs; the
/// calling thread works as worker 0 of every pass. Engine is single-caller.
/// Durability is the store's business: store::DurableEngine logs each record
/// it commits and replays it through this engine (store/recovery.h).
class Engine {
 public:
  explicit Engine(EngineOptions options = EngineOptions());
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses and applies a transformation expression to `kb`.
  StatusOr<Knowledgebase> Apply(std::string_view expression,
                                const Knowledgebase& kb);

  /// Applies a pre-built pipeline to `kb`.
  StatusOr<Knowledgebase> Apply(const Pipeline& pipeline, const Knowledgebase& kb);

  /// Shorthand for a single τ step with the sentence in concrete syntax.
  StatusOr<Knowledgebase> Insert(std::string_view sentence, const Knowledgebase& kb);

 private:
  const EngineOptions options_;
  /// The persistent pool, or nullptr when τ runs sequentially.
  std::unique_ptr<exec::ThreadPool> pool_;
};

/// Builds a relation of the given arity from tuples of constant names, e.g.
/// MakeRelation(2, {{"a", "b"}, {"b", "c"}}).
Relation MakeRelation(size_t arity,
                      std::initializer_list<std::initializer_list<std::string_view>>
                          tuples);

/// Builds a database over the given schema, e.g.
///   MakeDatabase({{"R1", 2}}, {{"R1", {{"a","b"},{"b","c"}}}}).
/// Relations not listed stay empty.
StatusOr<Database> MakeDatabase(
    std::initializer_list<std::pair<std::string_view, size_t>> schema_decls,
    std::initializer_list<
        std::pair<std::string_view,
                  std::initializer_list<std::initializer_list<std::string_view>>>>
        relations);

/// Builds a single-database knowledgebase over the given schema, e.g.
///   MakeSingletonKb({{"R1", 2}}, {{"R1", {{"a","b"},{"b","c"}}}}).
StatusOr<Knowledgebase> MakeSingletonKb(
    std::initializer_list<std::pair<std::string_view, size_t>> schema_decls,
    std::initializer_list<
        std::pair<std::string_view,
                  std::initializer_list<std::initializer_list<std::string_view>>>>
        relations);

}  // namespace kbt

#endif  // KBT_CORE_ENGINE_H_
