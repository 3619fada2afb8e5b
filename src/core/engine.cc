#include "core/engine.h"

#include <algorithm>
#include <thread>

#include "exec/pool.h"

namespace kbt {

namespace {

/// The pool for `threads` (0 = one per hardware thread), or nullptr when that
/// resolves to a width of one.
std::unique_ptr<exec::ThreadPool> StartPool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads <= 1) return nullptr;
  return std::make_unique<exec::ThreadPool>(threads);
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), pool_(StartPool(options_.tau_threads)) {}

Engine::~Engine() = default;

StatusOr<Knowledgebase> Engine::Apply(std::string_view expression,
                                      const Knowledgebase& kb) {
  KBT_ASSIGN_OR_RETURN(Pipeline pipeline, ParsePipeline(expression));
  return Apply(pipeline, kb);
}

StatusOr<Knowledgebase> Engine::Apply(const Pipeline& pipeline,
                                      const Knowledgebase& kb) {
  TauOptions tau_options;
  tau_options.mu = options_.mu;
  tau_options.threads = options_.tau_threads;
  tau_options.pool = pool_.get();
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
