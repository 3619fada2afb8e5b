#ifndef KBT_BENCH_BENCH_UTIL_H_
#define KBT_BENCH_BENCH_UTIL_H_

/// \file
/// Shared workload builders for the google-benchmark paper reproductions:
/// deterministic random graphs, chain graphs, and knowledgebase construction.
/// Seeds are fixed so every run measures the same instances.

#include <random>
#include <string>
#include <string_view>

#include "core/kbt.h"

namespace kbt::bench {

inline std::string V(int i) { return "n" + std::to_string(i); }

/// Random directed graph over n vertices with expected out-degree `degree`.
inline Relation RandomEdges(int n, double degree, uint64_t seed) {
  std::mt19937_64 rng(seed);
  double p = n > 1 ? degree / (n - 1) : 0.0;
  std::bernoulli_distribution coin(p);
  Relation::Builder edges(2);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && coin(rng)) edges.Append({Name(V(i)), Name(V(j))});
    }
  }
  return edges.Build();
}

/// Random DAG (edges i → j only for i < j) with expected out-degree `degree`.
inline Relation RandomDagEdges(int n, double degree, uint64_t seed) {
  std::mt19937_64 rng(seed);
  double p = n > 1 ? degree / (n - 1) : 0.0;
  std::bernoulli_distribution coin(p);
  Relation::Builder edges(2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (coin(rng)) edges.Append({Name(V(i)), Name(V(j))});
    }
  }
  return edges.Build();
}

/// Chain 0 → 1 → ... → n-1.
inline Relation ChainEdges(int n) {
  Relation::Builder edges(2);
  edges.Reserve(n > 0 ? n - 1 : 0);
  for (int i = 0; i + 1 < n; ++i) edges.Append({Name(V(i)), Name(V(i + 1))});
  return edges.Build();
}

/// Singleton kb over one binary relation.
inline Knowledgebase GraphKb(std::string_view relation, Relation edges) {
  Schema schema = *Schema::Of({{relation, 2}});
  return Knowledgebase::Singleton(*Database::Create(schema, {std::move(edges)}));
}

/// Unary relation {e0, ..., e_{n-1}}.
inline Relation UnarySet(int n, std::string_view prefix = "e") {
  Relation::Builder tuples(1);
  tuples.Reserve(static_cast<size_t>(n > 0 ? n : 0));
  for (int i = 0; i < n; ++i) {
    tuples.Append({Name(std::string(prefix) + std::to_string(i))});
  }
  return tuples.Build();
}

}  // namespace kbt::bench

#endif  // KBT_BENCH_BENCH_UTIL_H_
