#!/usr/bin/env bash
# Builds the test suite under a sanitizer (ThreadSanitizer by default) and
# runs the `stress` CTest label: the concurrency-heavy suites (thread
# pool, sharded registry, deploy scheduler, build farm, and every
# *Stress* suite). This is the CI gate for the serving layer's locking
# (shards, single-flight specialization cache, TU compile cache).
#
# Usage:
#   tests/run_tsan.sh [thread|address]
# Environment:
#   TSAN_BUILD_DIR  build directory (default: <repo>/build-<sanitizer>)
#   TSAN_FILTER     override: run this gtest filter instead of the
#                   stress label
#   TSAN_JOBS       parallel build jobs (default: nproc)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZER="${1:-thread}"
case "$SANITIZER" in
  thread|address) ;;
  *) echo "error: sanitizer must be 'thread' or 'address' (got '$SANITIZER')" >&2
     exit 2 ;;
esac

BUILD_DIR="${TSAN_BUILD_DIR:-$ROOT/build-$SANITIZER}"
JOBS="${TSAN_JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DXAAS_SANITIZE="$SANITIZER"
cmake --build "$BUILD_DIR" --target unit_tests -j "$JOBS"

# halt_on_error so CI fails fast on the first report.
if [[ "$SANITIZER" == thread ]]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
  # UBSan only prints unless told to halt.
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
fi

if [[ -n "${TSAN_FILTER:-}" ]]; then
  "$BUILD_DIR/unit_tests" --gtest_filter="$TSAN_FILTER"
else
  ctest --test-dir "$BUILD_DIR" -L stress --output-on-failure
fi
echo "[$SANITIZER sanitizer] service concurrency tests passed"
