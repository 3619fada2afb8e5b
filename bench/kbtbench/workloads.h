#ifndef KBTBENCH_WORKLOADS_H_
#define KBTBENCH_WORKLOADS_H_

/// \file
/// The four workloads' timed passes, their oracle checks, and the traced
/// pass that replays each workload's inputs layer by layer.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"

namespace kbtbench {

/// The fixed load parameters of a workload. The rates and SLOs were measured
/// once on seed 1 (`kbtbench calibrate`) and are never re-derived: a nominal
/// rate of about half the 4-connection closed-loop throughput, rounded to
/// 1-2-5, and an SLO of 10x the p50 at that rate, rounded up to 1-2-5.
struct Spec {
  const char* name;
  double nominal_rps;  ///< Open-loop rate of the nominal phase; 0 = closed loop.
  double slo_ms;       ///< Read p99 limit of a capacity probe.
  double write_frac;   ///< Share of applies in the request mix.
  size_t trace_sample; ///< Requests in the traced pass.
};

const Spec& SpecOf(const std::string& workload);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< Holds kbt_server and kbt_fsck.
  std::string out_dir;   ///< Result fragments and trace files.
  std::string work_dir;  ///< Scratch stores; removed when the run ends.
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// kUnavailable replies among the failures (the server refused work).
  uint64_t rejected = 0;
  /// The BENCHMARK.json end_to_end set, from the timed pass.
  Metrics end_to_end;
  /// The per_layer set: the timed pass's latency, capacity and recovery
  /// (too noisy on a shared host to hold a bound), plus, when traced, the
  /// layer replays.
  Metrics per_layer;
  /// Extra facts for results.json: request-type splits, sample counts,
  /// generator lag, probe outcomes.
  Metrics detail;
  std::vector<std::string> errors;
  std::string inputs_json;

  void Fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
};

/// The timed pass and its oracle checks.
RunResult RunTimed(const RunOptions& options);
/// The timed pass, then the traced pass; writes trace-<workload>.json.
RunResult RunTraced(const RunOptions& options);
/// Measures the closed-loop throughput and nominal-rate p50 the fixed specs
/// were derived from, and prints them.
int Calibrate(const RunOptions& options);

/// The oracle: plain NestedCounterfactual (fresh solver, no caches) on `kb`.
kbt::StatusOr<bool> PlainAnswer(const kbt::Knowledgebase& kb, const Request& r);

/// Writes `in.kb` as checkpoint 0 of a fresh store in `dir`.
kbt::Status WriteStore(const std::string& dir, const Inputs& in);
std::string InputsJson(const Inputs& in, uint64_t kb_bytes);

}  // namespace kbtbench

#endif  // KBTBENCH_WORKLOADS_H_
