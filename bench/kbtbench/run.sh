#!/usr/bin/env bash
# kbtbench: builds the benchmark together with the kbt_server and kbt_fsck it
# drives (into build-bench/ at the repo root), then runs it. See README.md.
#
#   bench/kbtbench/run.sh [--seed N] [--seconds S] [--out DIR] [--smoke]
#                         [--workloads a,b,...]
#       every workload (timed pass, then traced pass), one process each;
#       writes DIR/results.json (default DIR: build-bench/kbtbench-out)
#   bench/kbtbench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; its last line of stdout is the run's JSON result
#   bench/kbtbench/run.sh compare A.json... -- B.json...
#       the noise-aware diff between two sets of results.json files
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
default_seconds=20

usage() {
  sed -n '5,12p' "$here/run.sh" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

build_all() {
  mkdir -p "$build"
  local generator=()
  if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  if ! { cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build" -j "$(nproc)"; } >"$build/build.log" 2>&1; then
    echo "kbtbench: build failed (full log: $build/build.log)" >&2
    tail -n 30 "$build/build.log" >&2
    exit 1
  fi
}

build_all
KBTBENCH_GIT_SHA="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export KBTBENCH_GIT_SHA

if [ "${1:-}" = compare ]; then
  shift
  exec "$build/kbtbench" compare --bounds "$root/BENCHMARK.json" "$@"
fi

workload="" seed=1 seconds="" trace=0 smoke=0
out="$build/kbtbench-out"
workloads="read_hot,read_cold,write_repl,tau_worlds"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace) trace="${2:?}"; shift 2 ;;
    --out) out="${2:?}"; shift 2 ;;
    --workloads) workloads="${2:?}"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) usage ;;
  esac
done
mkdir -p "$out"

if [ -n "$workload" ]; then
  exec "$build/kbtbench" run --workload "$workload" --seed "$seed" \
    --seconds "${seconds:-$default_seconds}" --trace "$trace" \
    --bin-dir "$build" --out "$out"
fi

# A full set: one traced run per workload, each in its own process. A traced
# run is the timed pass followed by the traced pass, so its record carries
# both metric sets.
if [ "$smoke" = 1 ]; then seconds=1; fi
status=0
records=()
IFS=, read -r -a list <<<"$workloads"
for w in "${list[@]}"; do
  record="$out/$w-trace1.json"
  rm -f "$record"
  echo "kbtbench: $w" >&2
  if ! "$build/kbtbench" run --workload "$w" --seed "$seed" \
      --seconds "${seconds:-$default_seconds}" --trace 1 \
      --bin-dir "$build" --out "$out" >/dev/null; then
    status=1
  fi
  if [ -f "$record" ]; then records+=("$record"); fi
done
{
  printf '{"runs": [\n'
  sep=""
  for r in "${records[@]}"; do
    printf '%s' "$sep"
    cat "$r"
    sep=","
  done
  printf ']}\n'
} >"$out/results.json"
echo "kbtbench: wrote $out/results.json" >&2
exit "$status"
