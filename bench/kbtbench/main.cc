// kbtbench — the repository benchmark. See README.md.
//
//   kbtbench run --workload W --seed N --seconds S --trace 0|1
//                [--bin-dir DIR] [--out DIR]
//   kbtbench calibrate --workload W [--seed N] [--seconds S] [--bin-dir DIR]
//   kbtbench compare A.json... -- B.json...
//
// `run` prints a human summary on stderr and, as the last line of stdout,
// {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end set for --trace 0 and the per-layer set for --trace 1 (which
// runs the timed pass and then the traced pass). It also writes the full
// record (host stamp, input sizes, both metric sets, detail) to
// OUT/<workload>-trace<0|1>.json. Exit code 1 on any oracle mismatch.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compare.h"
#include "inputs.h"
#include "proc.h"
#include "report.h"
#include "workloads.h"

namespace kbtbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kbtbench run --workload W --seed N --seconds S --trace 0|1"
               " [--bin-dir DIR] [--out DIR]\n"
               "       kbtbench calibrate --workload W [--seed N] [--seconds S]"
               " [--bin-dir DIR]\n"
               "       kbtbench compare A.json... -- B.json...\n");
  return 2;
}

std::string SelfDir() {
  std::error_code ec;
  std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? "." : exe.parent_path().string();
}

bool ParseOptions(int argc, char** argv, RunOptions* o) {
  o->bin_dir = SelfDir();
  o->out_dir = o->bin_dir + "/kbtbench-out";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      o->trace = v == "1";
    } else if (arg == "--bin-dir") {
      o->bin_dir = v;
    } else if (arg == "--out") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  if (!IsWorkload(o->workload)) {
    std::fprintf(stderr, "kbtbench: unknown workload '%s'\n", o->workload.c_str());
    return false;
  }
  return true;
}

std::string Fragment(const RunOptions& o, const RunResult& r) {
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  errors += "]";
  return "{\"workload\": " + JsonString(o.workload) +
         ", \"trace\": " + (o.trace ? "1" : "0") +
         ", \"seconds\": " + JsonNumber(o.seconds) +
         ", \"host\": " + HostStampJson(o.seed, o.work_dir) +
         ", \"inputs\": " + (r.inputs_json.empty() ? "{}" : r.inputs_json) +
         ", \"correct\": " + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"end_to_end\": " + r.end_to_end.ToJson() +
         ", \"per_layer\": " + r.per_layer.ToJson() +
         ", \"detail\": " + r.detail.ToJson() + ", \"errors\": " + errors + "}";
}

int Run(const RunOptions& base) {
  RunOptions o = base;
  o.work_dir = o.out_dir + "/work-" + o.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "kbtbench: cannot create %s\n", o.work_dir.c_str());
    return 1;
  }
  RunResult r = o.trace ? RunTraced(o) : RunTimed(o);
  std::string fragment = Fragment(o, r);
  RemoveTree(o.work_dir);

  std::ofstream(o.out_dir + "/" + o.workload + "-trace" + (o.trace ? "1" : "0") +
                ".json")
      << fragment << "\n";
  const Metrics& printed = o.trace ? r.per_layer : r.end_to_end;
  for (const std::string& name : printed.names()) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", name.c_str(), printed.Get(name),
                 printed.unit(name).c_str());
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "kbtbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), printed.ToJson().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace kbtbench

int main(int argc, char** argv) {
  using namespace kbtbench;
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "compare") return Compare(argc - 2, argv + 2);
  RunOptions options;
  if (!ParseOptions(argc, argv, &options)) return Usage();
  if (command == "run") return Run(options);
  if (command == "calibrate") {
    options.work_dir = options.out_dir + "/work-calibrate";
    std::filesystem::create_directories(options.work_dir);
    int rc = Calibrate(options);
    RemoveTree(options.work_dir);
    return rc;
  }
  return Usage();
}
