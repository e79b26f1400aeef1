#!/usr/bin/env bash
# Wall-clock benchmark of the ROS2 client stack. Builds benchmark/ (which
# compiles ../src, so it measures the tree it sits in), then runs workloads.
#
#   benchmark/run.sh                      every workload, untraced (~2 min)
#   benchmark/run.sh --trace              ... plus a traced rerun of each
#                                         (per-layer ladder, tracing overhead)
#   benchmark/run.sh --smoke              every workload at 1/50 scale, traced
#                                         and untraced, all checks on (seconds)
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                         one run; the last stdout line is its
#                                         JSON result
#
# The workloads and the timed length of a run (run_seconds, unless
# --seconds is given) come from BENCHMARK.json. Build tree and outputs live
# under $CARGO_TARGET_DIR (default .bench_build) in the repo root:
# results.json (every run of this invocation plus a host fingerprint),
# results/<workload>.trace<0|1>.json, spans of traced runs.
# Exit codes: 0 ok, 1 build or set-up failure, 2 usage, 3 data mismatch.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

spec() {  # python expression over the BENCHMARK.json object `b`
  python3 -c "import json; b = json.load(open('BENCHMARK.json')); print($1)"
}
workloads=($(spec '" ".join(w["name"] for w in b["workloads"])'))
only=""
seed=1
seconds="$(spec 'b["run_seconds"]')"
trace=""
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) only="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

out="${CARGO_TARGET_DIR:-.bench_build}"
build="$out/wallbench"
mkdir -p "$out/results"

# --- build ----------------------------------------------------------------
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
log="$out/build.log"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release; } \
       > "$log" 2>&1 ||
   ! cmake --build "$build" --target ros2_wallbench -j "$jobs" >> "$log" 2>&1
then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi
bin="$build/ros2_wallbench"

rev=unknown
if [[ "$(git rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  rev="$(git rev-parse HEAD)$(git diff --quiet HEAD 2>/dev/null || echo -dirty)"
fi

# --- run ------------------------------------------------------------------
result_files=()
run_one() {  # workload trace(0|1)
  local res="$out/results/$1.trace$2.json"
  local args=(--workload "$1" --seed "$seed" --trace "$2" --git-rev "$rev"
              --results "$res" --spans "$out/results/$1.spans.json")
  if (( smoke )); then args+=(--smoke); else args+=(--seconds "$seconds"); fi
  "$bin" "${args[@]}"
  result_files+=("$res")
}

# Prints the tracing overhead: traced core span p50 vs untraced read p50.
overhead() {  # workload
  python3 - "$out/results/$1.trace0.json" "$out/results/$1.trace1.json" <<'EOF'
import json, sys
untraced, traced = (json.load(open(p))["all_metrics"] for p in sys.argv[1:])
base = untraced["read_p50_us"]["value"]
core = traced["core.pread_p50_us"]["value"]
print(f"  tracing overhead: core span p50 {core:.1f} us vs untraced "
      f"read_p50_us {base:.1f} us ({(core / base - 1) * 100:+.1f}%)")
EOF
}

if [[ -n "$only" ]]; then
  if [[ " ${workloads[*]} " != *" $only "* ]]; then
    echo "run.sh: unknown workload $only (one of: ${workloads[*]})" >&2
    exit 2
  fi
  run_one "$only" "${trace:-0}"
else
  (( smoke )) && [[ -z "$trace" ]] && trace=1
  for w in "${workloads[@]}"; do
    run_one "$w" 0
    if [[ "$trace" == 1 ]]; then
      run_one "$w" 1
      overhead "$w"
    fi
  done
fi

{
  printf '{"runs": [\n'
  sep=""
  for f in "${result_files[@]}"; do printf '%s' "$sep"; cat "$f"; sep=","; done
  printf ']}\n'
} > "$out/results.json"
