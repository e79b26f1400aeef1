#!/usr/bin/env bash
# Runs the suite N times and checks the run-to-run spread of every
# end-to-end metric against its BENCHMARK.json bound (benchmark/stats.py).
#
#   benchmark/repeat.sh N [--seed S] [--vary-seed] [--baseline SUMMARY.json]
#
# Every repetition uses seed S (default 1) unless --vary-seed, which uses
# S, S+1, ... S+N-1 (the spread across seeds). Repetitions interleave the
# workloads so slow drift in machine load spreads over all of them. Each
# run's output (<workload>.<rep>.log), its JSON line (.json) and
# summary.json (the medians) go to $CARGO_TARGET_DIR/repeat/seed<S>[-vary];
# pass an earlier set's summary.json as --baseline to also require that no
# median got worse than that set's by more than its bound.
# Exits 1 when a gate fails, 2 on usage errors.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ $# -lt 1 || ! "$1" =~ ^[0-9]+$ ]]; then
  sed -n '2,14p' "$0" >&2
  exit 2
fi
reps="$1"; shift
seed=1
vary=0
baseline=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --vary-seed) vary=1; shift ;;
    --baseline) baseline=(--baseline "$(realpath "$2")"); shift 2 ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
cd "$root"

workloads=($(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'))

dir="${CARGO_TARGET_DIR:-.bench_build}/repeat/seed$seed"
if ((vary)); then dir+="-vary"; fi
rm -rf "$dir"
mkdir -p "$dir"
for ((i = 0; i < reps; i++)); do
  s=$((vary ? seed + i : seed))
  for w in "${workloads[@]}"; do
    echo "rep $((i + 1))/$reps  $w  seed $s" >&2
    bash benchmark/run.sh --workload "$w" --seed "$s" --trace 0 \
      > "$dir/$w.$i.log"
    tail -n 1 "$dir/$w.$i.log" > "$dir/$w.$i.json"
  done
done
python3 benchmark/stats.py BENCHMARK.json "$dir" "${baseline[@]}"
