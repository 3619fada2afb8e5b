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

/// Commit hook for durable storage (implemented by store::DurableEngine).
/// When attached to an Engine, every successful text-form Apply hands the
/// expression and its result to Commit before the caller sees them — the
/// write-ahead discipline: a transformation whose log commit fails is not
/// acknowledged. Core stays storage-free; the store layer implements this.
class TransformLog {
 public:
  virtual ~TransformLog() = default;

  /// Makes one committed transformation durable. `expression` is the concrete
  /// pipeline syntax that produced `result`.
  virtual Status Commit(std::string_view expression,
                        const Knowledgebase& result) = 0;
};

struct EngineOptions {
  MuOptions mu;
  /// Width of τ's world fan-out (see TauOptions::threads): the calling
  /// thread plus tau_threads − 1 helpers. 1 = sequential, 0 = one per
  /// hardware thread.
  size_t tau_threads = 1;
};

/// High-level entry point: owns options, parses expressions, applies them.
/// When tau_threads resolves to a width above one, the engine starts one
/// persistent exec::ThreadPool on the first such Apply (restarted only when
/// the setting changes) and lends it to every τ step — a serving loop calling
/// Apply repeatedly pays the thread spawn once, not per call. The pool's
/// tau_threads − 1 helpers sleep while no pass runs; the calling thread works
/// as worker 0 of every pass. Engine is single-caller like before.
class Engine {
 public:
  explicit Engine(EngineOptions options = EngineOptions());
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses and applies a transformation expression to `kb`. With a log
  /// attached, the result is committed to it before being returned; a failed
  /// commit fails the Apply.
  StatusOr<Knowledgebase> Apply(std::string_view expression,
                                const Knowledgebase& kb);

  /// Applies a pre-built pipeline to `kb`. With a log attached, the pipeline's
  /// canonical concrete rendering (Pipeline::ToString, which round-trips
  /// through ParsePipeline) is committed — pre-built and text-form applies are
  /// equally durable.
  StatusOr<Knowledgebase> Apply(const Pipeline& pipeline, const Knowledgebase& kb);

  /// Shorthand for a single τ step with the sentence in concrete syntax.
  StatusOr<Knowledgebase> Insert(std::string_view sentence, const Knowledgebase& kb);

  const EngineOptions& options() const { return options_; }
  EngineOptions& options() { return options_; }

  /// Attaches a durability log (borrowed; nullptr detaches). Both Apply
  /// overloads commit: text-form applies log their input verbatim, pre-built
  /// pipelines log their canonical rendering.
  void AttachLog(TransformLog* log) { log_ = log; }
  TransformLog* log() const { return log_; }

 private:
  /// The persistent pool for the current tau_threads setting (started on first
  /// need, restarted if the setting changes), or nullptr when sequential.
  exec::ThreadPool* Pool();

  /// Runs the pipeline's steps (shared by both Apply overloads); commits are
  /// the overloads' business, so each logs exactly once.
  StatusOr<Knowledgebase> ApplySteps(const Pipeline& pipeline,
                                     const Knowledgebase& kb);

  EngineOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
  TransformLog* log_ = nullptr;
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
