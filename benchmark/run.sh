#!/usr/bin/env bash
# x100bench entry point. Builds the benchmark (the engine from this
# checkout's sources plus the benchmark binary, Release) under
# .bench_build/, then runs workloads, each in its own process.
#
#   bash benchmark/run.sh [--seed N] [--trace] [--out DIR] [--seconds S]
#       every workload in turn; result files go to DIR
#       (default .bench_build/results)
#   bash benchmark/run.sh --smoke
#       every workload for 2 s, untraced and traced; checks that each
#       metric BENCHMARK.json names is printed, that every output parses,
#       and that no scratch files are left behind
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is its JSON summary
#
# Build output goes to stderr, so stdout carries only results.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/cmake/x100bench"
workloads=(olap_mem serve_mix cold_rw spill_join)

usage() {
  echo "usage: $0 [--seed N] [--trace] [--out DIR] [--seconds S] | --smoke |" \
       "--workload W --seed N --seconds S --trace 0|1 [--out DIR]" >&2
  exit 2
}

mode=all
workload=""
seed=1
seconds=""
trace=0
out="$build/results"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workload="$2"; mode=one; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds="$2"; shift 2 ;;
    --out) [ $# -ge 2 ] || usage; out="$2"; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) mode=smoke; shift ;;
    *) usage ;;
  esac
done
if [ -z "$seconds" ]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
             "$root/BENCHMARK.json")"
fi

# The engine must see only the benchmark's own configuration.
unset X100_MEMORY_LIMIT X100_BUFFER_POOL X100_SPILL_PATH X100_SIMD
# Scratch data, spill files and compiler temporaries stay in the checkout.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
if sha="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
  export X100BENCH_GIT_SHA="$sha"
fi

if [ ! -f "$build/cmake/CMakeCache.txt" ]; then
  cmake -S "$root/benchmark" -B "$build/cmake" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build/cmake" --target x100bench -j "$(nproc)" >&2

# Runs one workload; scratch directories a crashed run left are removed.
run_one() {
  local status=0
  "$bin" --workload "$1" --seed "$2" --seconds "$3" --trace "$4" \
         --out "$5" || status=$?
  rm -rf "$TMPDIR"/x100bench-*
  return "$status"
}

case "$mode" in
  one)
    run_one "$workload" "$seed" "$seconds" "$trace" "$out"
    ;;
  all)
    status=0
    for w in "${workloads[@]}"; do
      echo "== $w (seed $seed, ${seconds}s, trace $trace)"
      run_one "$w" "$seed" "$seconds" "$trace" "$out" || status=1
    done
    exit "$status"
    ;;
  smoke)
    smoke="$build/smoke"
    rm -rf "$smoke"
    mkdir -p "$smoke"
    for w in "${workloads[@]}"; do
      for t in 0 1; do
        echo "== smoke $w trace $t" >&2
        run_one "$w" 1 2 "$t" "$smoke" > "$smoke/$w.trace$t.out"
      done
    done
    python3 "$root/benchmark/check_smoke.py" "$root/BENCHMARK.json" \
            "$smoke" "$TMPDIR"
    ;;
esac
