#!/usr/bin/env bash
# Project-invariant lint: the repo's standing rules, enforced instead of
# remembered. Each violation prints one line
#
#   LINT-FAIL <rule>: <file>:<line>: <what>
#
# and the script exits 1 if anything fired. Rules:
#
#   adhoc-stats      New ad-hoc `struct FooStats` outside src/telemetry.
#                    Runtime stats register (or Link) in the telemetry
#                    tree (ROADMAP standing constraint); the two
#                    pre-tree structs that survive as views over tree
#                    objects are grandfathered below.
#   raw-mutex        `std::mutex` / `std::condition_variable` /
#                    `std::shared_mutex` in src/ outside the annotated
#                    wrapper (common/thread_annotations.h). Raw mutexes
#                    carry no capability, so Clang's thread-safety
#                    analysis cannot see them; use common::Mutex,
#                    common::MutexLock, and common::CondVar.
#   nodiscard        A free factory function returning Status/Result
#                    without [[nodiscard]] on it (on the same or the
#                    preceding line). The classes themselves are
#                    [[nodiscard]]; the attribute on factories keeps the
#                    contract visible at the declaration.
#   include-guard    A header without `#pragma once`.
#   banned-function  strcpy/strcat/sprintf/gets/tmpnam — unbounded or
#                    unsafe C library calls with bounded replacements.
#   rpc-client       Constructing an `rpc::RpcClient` outside
#                    src/daos/client.cc (the one DAOS engine-client stack)
#                    and src/spdk/nvmf.cc (the NVMe-oF initiator). Every
#                    other engine call goes through DaosClient.
#   spin-wait        `this_thread::yield` anywhere but the one RpcClient
#                    wait loop (src/rpc/data_rpc.cc, exactly once). Every
#                    client wait runs through that loop, so a change to
#                    how clients wait is made in one place.
#
# When clang-tidy AND a compile_commands.json exist, the committed
# .clang-tidy profile also runs over the scanned sources (advisory depth
# on top of the grep rules; absent tooling never fails the stage).
#
# Usage:
#   scripts/lint.sh                 # lint src/ (the CI gate)
#   scripts/lint.sh --dir <path>    # lint another tree (the selftest
#                                   # points this at seeded violations)
#   scripts/lint.sh --no-clang-tidy # grep rules only
set -euo pipefail

cd "$(dirname "$0")/.."

ROOT="src"
RUN_TIDY=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --dir)
      shift
      [[ $# -gt 0 ]] || { echo "--dir needs a path" >&2; exit 2; }
      ROOT="$1"
      ;;
    --no-clang-tidy)
      RUN_TIDY=0
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
  shift
done

[[ -d "$ROOT" ]] || { echo "no such directory: $ROOT" >&2; exit 2; }

FAILED=0
fail() {  # fail <rule> <file:line> <message>
  echo "LINT-FAIL $1: $2: $3"
  FAILED=1
}

# Every C++ source under the scanned root (NUL-safe not needed: the tree
# has no whitespace paths, and ctest would have failed long before this).
mapfile -t SOURCES < <(find "$ROOT" \( -name '*.h' -o -name '*.cc' \) \
    -type f | sort)
mapfile -t HEADERS < <(find "$ROOT" -name '*.h' -type f | sort)

# ---------------------------------------------------------- adhoc-stats
# Grandfathered: pre-telemetry-tree structs that PR 7 rebuilt as VIEWS
# over tree-registered objects (accessors read the same Counter the
# tree snapshots). New stat structs do not get added here — they register
# in the tree instead.
ADHOC_ALLOW='src/rpc/data_rpc\.h|src/daos/vos\.h'
for f in "${SOURCES[@]}"; do
  [[ "$f" == */telemetry/* ]] && continue
  [[ "$f" =~ ^($ADHOC_ALLOW)$ ]] && continue
  while IFS=: read -r line _; do
    [[ -n "$line" ]] || continue
    fail adhoc-stats "$f:$line" \
        "ad-hoc stat struct; register in the telemetry tree instead"
  done < <(grep -nE 'struct [A-Za-z0-9_]*Stats\b' "$f" || true)
done

# ------------------------------------------------------------ raw-mutex
for f in "${SOURCES[@]}"; do
  [[ "$f" == */thread_annotations.h ]] && continue
  while IFS=: read -r line _; do
    [[ -n "$line" ]] || continue
    fail raw-mutex "$f:$line" \
        "raw std::mutex family; use common::Mutex (thread_annotations.h)"
  done < <(grep -nE \
      'std::(mutex|shared_mutex|recursive_mutex|condition_variable)\b' \
      "$f" || true)
done

# ------------------------------------------------------------ nodiscard
# Free factory declarations at line start: `Status Foo(...)` or
# `Result<T> Foo(...)` (optionally inline/constexpr), with no nodiscard on
# the declaration or the line above it.
for f in "${HEADERS[@]}"; do
  while IFS=: read -r line _; do
    [[ -n "$line" ]] || continue
    fail nodiscard "$f:$line" \
        "Status/Result factory without [[nodiscard]]"
  done < <(awk '
    /nodiscard/ { prev_nodiscard = 1; print_line = 0 }
    /^(inline |constexpr )*(Status|Result<.*>) [A-Z][A-Za-z0-9_]*\(/ {
      if (!prev_nodiscard && $0 !~ /nodiscard/) printf "%d:x\n", NR
    }
    !/nodiscard/ { prev_nodiscard = 0 }
  ' "$f" || true)
done

# -------------------------------------------------------- include-guard
for f in "${HEADERS[@]}"; do
  if ! grep -q '^#pragma once' "$f"; then
    fail include-guard "$f:1" "header missing #pragma once"
  fi
done

# ------------------------------------------------------ banned-function
for f in "${SOURCES[@]}"; do
  while IFS=: read -r line _; do
    [[ -n "$line" ]] || continue
    fail banned-function "$f:$line" \
        "banned C library call (unbounded/unsafe; use the bounded form)"
  done < <(grep -nE '\b(strcpy|strcat|sprintf|gets|tmpnam)\s*\(' "$f" \
      || true)
done

# ----------------------------------------------------------- rpc-client
RPC_CLIENT_ALLOW='src/daos/client\.cc|src/spdk/nvmf\.cc'
for f in "${SOURCES[@]}"; do
  [[ "$f" =~ ^($RPC_CLIENT_ALLOW)$ ]] && continue
  while IFS=: read -r line _; do
    [[ -n "$line" ]] || continue
    fail rpc-client "$f:$line" \
        "rpc::RpcClient constructed outside the DAOS client; use DaosClient"
  done < <(grep -nE \
      '(make_unique|make_shared)<(rpc::)?RpcClient>|new (rpc::)?RpcClient\b|\bRpcClient [A-Za-z_][A-Za-z0-9_]*[({]' \
      "$f" || true)
done

# ------------------------------------------------------------ spin-wait
# The allowed file may hold one yield; past that, every site is reported
# (which of them is "the" loop is for the fix to decide).
SPIN_ALLOW='src/rpc/data_rpc.cc'
for f in "${SOURCES[@]}"; do
  mapfile -t sites < <(grep -nE '\bthis_thread::yield\b' "$f" | cut -d: -f1 \
      || true)
  allowed=0
  [[ "$f" == "$SPIN_ALLOW" ]] && allowed=1
  (( ${#sites[@]} > allowed )) || continue
  for line in "${sites[@]}"; do
    fail spin-wait "$f:$line" \
        "yield spin beyond the one in RpcClient::WaitFor; wait through it"
  done
done

# ----------------------------------------------------------- clang-tidy
# Depth pass when the tooling exists: the committed .clang-tidy profile
# over compile_commands.json. Skipped silently when clang-tidy or the
# compilation database is absent (offline containers, fresh checkouts).
if [[ "$RUN_TIDY" == 1 && "$ROOT" == "src" ]] \
    && command -v clang-tidy > /dev/null 2>&1; then
  DB=""
  for cand in build compile_commands; do
    [[ -f "$cand/compile_commands.json" ]] && { DB="$cand"; break; }
  done
  if [[ -n "$DB" ]]; then
    echo "lint: running clang-tidy over $DB/compile_commands.json"
    mapfile -t TIDY_SOURCES < <(find src -name '*.cc' -type f | sort)
    if ! clang-tidy -p "$DB" --quiet "${TIDY_SOURCES[@]}"; then
      fail clang-tidy "src" "clang-tidy reported errors (see above)"
    fi
  fi
fi

if [[ "$FAILED" != 0 ]]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: OK ($ROOT: ${#SOURCES[@]} files)"
