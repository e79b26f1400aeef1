#!/usr/bin/env bash
# Tier-1 gate: lint -> configure -> build -> ctest -> examples ->
# sanitizer matrix -> bench smoke (model benches, then the wall-clock
# benchmark's --smoke).
# Keep the configure/build/ctest sequence byte-for-byte in sync with the
# one-liner in README.md; .github/workflows/ci.yml just calls this script.
#
# CI turns -Werror ON (src/ and tests/ are warning-clean and stay that
# way); local builds default it OFF so an unusual toolchain can't brick
# the build.
#
# Usage:
#   scripts/ci.sh                     # vendored minigtest + minibenchmark
#   scripts/ci.sh --system-gtest      # suite against installed GoogleTest
#   scripts/ci.sh --system-benchmark  # micro bench against installed
#                                     # google-benchmark
#   scripts/ci.sh --no-bench          # skip the bench smoke stage (model
#                                     # benches + wall-clock smoke)
#   scripts/ci.sh --no-tsan           # skip the ThreadSanitizer stage
#   scripts/ci.sh --tsan-only         # ONLY the ThreadSanitizer stage
#   scripts/ci.sh --no-asan           # skip the ASan/UBSan stage
#   scripts/ci.sh --asan-only         # ONLY the ASan/UBSan stage
#   scripts/ci.sh --no-lint           # skip the project-invariant lint
#   scripts/ci.sh --lint-only         # ONLY the project-invariant lint
#   BUILD_DIR=out scripts/ci.sh       # custom build directory
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CMAKE_ARGS=(-DROS2_WERROR=ON)
BENCH_ARGS=()
RUN_BENCH=1
RUN_TSAN=1
RUN_ASAN=1
RUN_LINT=1
RUN_MAIN=1
for arg in "$@"; do
  case "$arg" in
    --system-gtest)
      CMAKE_ARGS+=(-DROS2_USE_SYSTEM_GTEST=ON)
      BUILD_DIR="${BUILD_DIR}-sysgtest"
      ;;
    --system-benchmark)
      CMAKE_ARGS+=(-DROS2_USE_SYSTEM_BENCHMARK=ON)
      BENCH_ARGS+=(--system-benchmark)
      # Own build dir, like --system-gtest: otherwise the ON value would
      # stick in the default dir's CMake cache and poison later plain runs.
      BUILD_DIR="${BUILD_DIR}-sysbench"
      ;;
    --no-bench)
      RUN_BENCH=0
      ;;
    --no-tsan)
      RUN_TSAN=0
      ;;
    --tsan-only)
      RUN_MAIN=0
      RUN_BENCH=0
      RUN_ASAN=0
      RUN_LINT=0
      ;;
    --no-asan)
      RUN_ASAN=0
      ;;
    --asan-only)
      RUN_MAIN=0
      RUN_BENCH=0
      RUN_TSAN=0
      RUN_LINT=0
      ;;
    --no-lint)
      RUN_LINT=0
      ;;
    --lint-only)
      RUN_MAIN=0
      RUN_BENCH=0
      RUN_TSAN=0
      RUN_ASAN=0
      ;;
    *)
      echo "unknown argument: $arg" >&2
      exit 2
      ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

if [[ "$RUN_LINT" == 1 ]]; then
  # Project-invariant lint runs FIRST so rule violations fail in seconds,
  # before any compile. scripts/lint.sh enforces the repo's standing rules
  # (telemetry-tree registration, annotated mutex wrapper, [[nodiscard]]
  # factories, include guards, banned functions) and runs the committed
  # .clang-tidy profile when clang-tidy + compile_commands.json exist.
  scripts/lint.sh
fi

if [[ "$RUN_MAIN" == 1 ]]; then
  cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
  cmake --build "$BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  # Examples: each boots a Ros2Cluster with the default Config (the only
  # code that does) and returns 1 on any failed step or verify.
  for example in "$BUILD_DIR"/examples/example_*; do
    echo "== $example"
    "$example"
  done
  # Telemetry smoke: boot a demo engine, drive a workload, and validate the
  # end-to-end wiring (non-zero per-opcode latency histograms, per-target
  # queue-depth gauges) over the kTelemetryQuery RPC. --check exits 1 on
  # any missing metric.
  "$BUILD_DIR/src/telemetry/ros2_telemetryctl" dump --check > /dev/null
  # Self-healing smoke: 3 engines, kill one mid-workload, degrade, rebuild,
  # resync. --check additionally gates the rebuild/<victim>/* counters,
  # progress == 100, pool-map transitions, and a fully drained journal.
  "$BUILD_DIR/src/telemetry/ros2_telemetryctl" dump --rebuild --check \
      > /dev/null
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  # ThreadSanitizer gate over the concurrency suites: the xstream workers,
  # the poll-set doorbell, the MR cache, the stall-deadline client and the
  # engine's shared SCM arena are all multithreaded now, and TSan keeps
  # their locking honest. Only the
  # concurrency-relevant test binaries are built (benches/examples off) so
  # the stage stays cheap; halt_on_error makes any report a hard failure.
  TSAN_DIR="${BUILD_DIR}-tsan"
  TSAN_SUITES="engine_scheduler_mt_test|fabric_test|mr_cache_test"
  TSAN_SUITES+="|rpc_pipeline_test|engine_scheduler_test|nvme_device_test"
  TSAN_SUITES+="|telemetry_test|rebuild_mt_test|dfs_mt_test|pmem_pool_test"
  cmake -B "$TSAN_DIR" -S . "${CMAKE_ARGS[@]}" -DROS2_SANITIZE=thread \
      -DROS2_BUILD_BENCHES=OFF -DROS2_BUILD_EXAMPLES=OFF
  # shellcheck disable=SC2086  # the | list is a ctest regex, not words
  cmake --build "$TSAN_DIR" -j "$JOBS" \
      --target ${TSAN_SUITES//|/ }
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$TSAN_DIR" \
      --output-on-failure -j "$JOBS" -R "^(${TSAN_SUITES})\$"
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  # AddressSanitizer + UBSan gate over the FULL suite (TSan's blind spot:
  # heap misuse, leaks, UB). Unlike the TSan stage this runs everything —
  # including the vos/dfs/rpc fuzz shards, which feed adversarial bytes
  # into the decode paths where UB hides. detect_leaks=1 makes any leak a
  # failure; -fno-sanitize-recover=undefined (wired in CMakeLists.txt when
  # ROS2_SANITIZE contains "undefined") makes any UB report a hard abort
  # instead of a printed warning.
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . "${CMAKE_ARGS[@]}" \
      -DROS2_SANITIZE=address,undefined \
      -DROS2_BUILD_BENCHES=OFF -DROS2_BUILD_EXAMPLES=OFF
  cmake --build "$ASAN_DIR" -j "$JOBS"
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
      UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  # Bench gate: every experiment binary runs quick-mode, its functional
  # checks must pass, and the aggregate is diffed against the committed
  # model-number baseline (bench/BENCH_baseline.json; wall-clock metrics
  # are excluded from it, and direction-hinted metrics only fail on
  # bad-direction drift). A deliberate model change must refresh the
  # baseline via `scripts/bench.sh --write-baseline` in the same PR.
  # EXPERIMENTS.md is left untouched here — regenerating it is a deliberate
  # local act (scripts/bench.sh) whose diff rides the PR that changed perf.
  # A failure here must not hide the smoke below, so both always run.
  bench_status=0
  BUILD_DIR="$BUILD_DIR" scripts/bench.sh --quick --no-experiments-md \
      --diff bench/BENCH_baseline.json "${BENCH_ARGS[@]}" || bench_status=$?
  # Wall-clock benchmark smoke: every workload at 1/50 scale, traced and
  # untraced, read back through Ros2Client and checked byte for byte
  # (exit 3 on a mismatch). It builds its own Release tree under
  # .bench_build/.
  smoke_status=0
  bash benchmark/run.sh --smoke || smoke_status=$?
  if (( bench_status != 0 || smoke_status != 0 )); then
    echo "bench stage failed: scripts/bench.sh exit $bench_status," \
         "benchmark/run.sh --smoke exit $smoke_status" >&2
    exit 1
  fi
fi
