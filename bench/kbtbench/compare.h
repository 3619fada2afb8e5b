#ifndef KBTBENCH_COMPARE_H_
#define KBTBENCH_COMPARE_H_

namespace kbtbench {

/// `kbtbench compare [--bounds BENCHMARK.json] A.json... -- B.json...`: the
/// noise-aware diff between two sets of result files (results.json written
/// by run.sh, or single run records). For every (workload, metric) it prints
/// each side's median and quartiles and a verdict: unresolved when a side
/// has fewer than three runs; otherwise, for an end-to-end metric, with
/// spread = (q3 - q1) / median of a side:
///
///   unresolved  either side's spread exceeds the bound (unless every B run
///               beats every A run: better);
///   worse       B's median is worse than A's by more than the bound;
///   better      B's median beats A's by more than A's spread and B wins at
///               least nine in ten of the runs paired by position;
///   within      otherwise.
///
/// A per-layer metric has no bound: it is better or worse only when the
/// medians differ by more than the larger spread and nine in ten pairs
/// agree, else within. Exit code 1 when an end-to-end pair is worse, 2 on
/// bad input.
int Compare(int argc, char** argv);

}  // namespace kbtbench

#endif  // KBTBENCH_COMPARE_H_
