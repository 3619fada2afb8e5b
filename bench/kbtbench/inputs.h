#ifndef KBTBENCH_INPUTS_H_
#define KBTBENCH_INPUTS_H_

/// \file
/// Seeded workload inputs. Everything a run sends to the system — the
/// knowledgebase, the read pool, the write stream — is a pure function of
/// (workload, seed); the arrival schedule is drawn from the same seed in
/// load.cc. Sizes are fixed per workload so runs on different seeds do the
/// same amount of work.

#include <cstdint>
#include <string>
#include <vector>

#include "rel/knowledgebase.h"

namespace kbtbench {

/// One hypothetical read: insert the antecedents left to right, then check
/// the consequent in every world (necessarily) or in some world (possibly).
struct Request {
  std::vector<std::string> antecedents;
  std::string consequent;
  bool necessarily = true;
};

struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  int domain = 0;
  /// Relation declarations for `kbt_server --init` (ignored by the server
  /// once it recovers the generated store, but the flag is mandatory).
  std::string decls;
  kbt::Knowledgebase kb;
  /// The distinct read requests; load draws from them uniformly.
  std::vector<Request> reads;
  /// The write stream: apply expressions, used in order and cycled.
  std::vector<std::string> writes;
  /// A Horn sentence over the kb's schema with a new head relation, for the
  /// datalog layer replay.
  std::string horn;
};

/// Builds the inputs of `workload` (read_hot, read_cold, write_repl or
/// tau_worlds) from `seed`. Aborts on an unknown workload name; callers
/// validate names first with IsWorkload.
Inputs MakeInputs(const std::string& workload, uint64_t seed);

/// The sentence of a write-stream entry "tau{<sentence>}".
std::string SentenceOf(const std::string& write);

bool IsWorkload(const std::string& name);

}  // namespace kbtbench

#endif  // KBTBENCH_INPUTS_H_
