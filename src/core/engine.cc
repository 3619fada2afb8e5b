#include "core/engine.h"

#include <algorithm>
#include <thread>

#include "exec/pool.h"

namespace kbt {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

Engine::~Engine() = default;

exec::ThreadPool* Engine::Pool() {
  size_t threads = options_.tau_threads != 0
                       ? options_.tau_threads
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->workers() != threads) {
    pool_ = std::make_unique<exec::ThreadPool>(threads);
  }
  return pool_.get();
}

StatusOr<Knowledgebase> Engine::Apply(std::string_view expression,
                                      const Knowledgebase& kb) {
  KBT_ASSIGN_OR_RETURN(Pipeline pipeline, ParsePipeline(expression));
  KBT_ASSIGN_OR_RETURN(Knowledgebase result, ApplySteps(pipeline, kb));
  if (log_ != nullptr) {
    // Write-ahead discipline: a result whose commit failed is never returned
    // as a success — the caller must treat the transformation as not applied.
    KBT_RETURN_IF_ERROR(log_->Commit(expression, result));
  }
  return result;
}

StatusOr<Knowledgebase> Engine::Apply(const Pipeline& pipeline,
                                      const Knowledgebase& kb) {
  KBT_ASSIGN_OR_RETURN(Knowledgebase result, ApplySteps(pipeline, kb));
  if (log_ != nullptr) {
    // Pre-built pipelines are as durable as text ones: the canonical rendering
    // round-trips through ParsePipeline (property-tested in engine_test), so
    // replay applies the identical transformation.
    KBT_RETURN_IF_ERROR(log_->Commit(pipeline.ToString(), result));
  }
  return result;
}

StatusOr<Knowledgebase> Engine::ApplySteps(const Pipeline& pipeline,
                                           const Knowledgebase& kb) {
  TauOptions tau_options;
  tau_options.mu = options_.mu;
  tau_options.threads = options_.tau_threads;
  // Serving-style reuse: lend the lazily-started persistent pool to every τ
  // step instead of letting each call spawn (and join) its own workers.
  tau_options.pool = Pool();
  return pipeline.Apply(kb, tau_options);
}

StatusOr<Knowledgebase> Engine::Insert(std::string_view sentence,
                                       const Knowledgebase& kb) {
  Pipeline pipeline;
  pipeline.Tau(sentence);
  return Apply(pipeline, kb);
}

Relation MakeRelation(
    size_t arity,
    std::initializer_list<std::initializer_list<std::string_view>> tuples) {
  std::vector<Tuple> rows;
  rows.reserve(tuples.size());
  for (const auto& tuple : tuples) {
    std::vector<Value> values;
    values.reserve(tuple.size());
    for (std::string_view name : tuple) values.push_back(Name(name));
    rows.emplace_back(std::move(values));
  }
  return Relation(arity, std::move(rows));
}

StatusOr<Database> MakeDatabase(
    std::initializer_list<std::pair<std::string_view, size_t>> schema_decls,
    std::initializer_list<
        std::pair<std::string_view,
                  std::initializer_list<std::initializer_list<std::string_view>>>>
        relations) {
  KBT_ASSIGN_OR_RETURN(Schema schema, Schema::Of(schema_decls));
  Database db(schema);
  for (const auto& [name, tuples] : relations) {
    KBT_ASSIGN_OR_RETURN(Relation existing, db.RelationFor(name));
    KBT_ASSIGN_OR_RETURN(db,
                         db.WithRelation(name, MakeRelation(existing.arity(), tuples)));
  }
  return db;
}

StatusOr<Knowledgebase> MakeSingletonKb(
    std::initializer_list<std::pair<std::string_view, size_t>> schema_decls,
    std::initializer_list<
        std::pair<std::string_view,
                  std::initializer_list<std::initializer_list<std::string_view>>>>
        relations) {
  KBT_ASSIGN_OR_RETURN(Database db, MakeDatabase(schema_decls, relations));
  return Knowledgebase::Singleton(std::move(db));
}

}  // namespace kbt
