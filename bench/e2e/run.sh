#!/usr/bin/env bash
# End-to-end benchmark of the XaaS service (see bench/e2e/README.md).
#
#   bench/e2e/run.sh --seed N [--workload W] [--seconds S] [--trace [0|1]]
#                    [--smoke] [--out FILE]
#   bench/e2e/run.sh --write-golden
#   bench/e2e/run.sh --compare BASE NEW
#
# Run from the repository root. Builds build-e2e/ (Release only), runs each
# workload in its own process, prints every metric as
# "workload metric value unit", writes build-e2e/results.json and prints,
# as the last line, one JSON object {correct, attempted, failed, metrics}.
# A traced run is paired with the untraced run of the same workload, seed
# and length (recorded in build-e2e/runs/, run first when missing): it
# must report identical exact counts, and prints the tracing overhead.
set -euo pipefail

usage() {
  sed -n '2,9p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

WORKLOADS=(serve_hot serve_release deploy_fleet run_apps)
workloads=()
seed=""
seconds=20
trace=0
smoke=0
out=""
mode=run
compare_args=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || usage; workloads+=("$2"); shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; seed="$2"; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --out) [[ $# -ge 2 ]] || usage; out="$2"; shift 2 ;;
    --write-golden) mode=golden; shift ;;
    --compare) [[ $# -ge 3 ]] || usage; mode=compare; compare_args=("$2" "$3"); shift 3 ;;
    -h|--help) usage ;;
    *) echo "run.sh: unknown argument '$1'" >&2; usage ;;
  esac
done
if [[ "$mode" == run && -z "$seed" ]]; then
  echo "run.sh: --seed is required" >&2
  usage
fi
[[ ${#workloads[@]} -gt 0 ]] || workloads=("${WORKLOADS[@]}")
for w in "${workloads[@]}"; do
  case " ${WORKLOADS[*]} " in
    *" $w "*) ;;
    *) echo "run.sh: unknown workload '$w' (one of: ${WORKLOADS[*]})" >&2; exit 2 ;;
  esac
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: $root is not a checkout of the repository (no CMakeLists.txt and src/)" >&2
  exit 2
fi

build=build-e2e
child=""
cleanup() {
  if [[ -n "$child" ]]; then
    kill "$child" 2>/dev/null || true
    wait "$child" 2>/dev/null || true
  fi
  rm -rf "$build/artifacts"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# Run a command in the background and wait for it, so a signal to this
# script stops it too.
run_child() {
  "$@" &
  child=$!
  local status=0
  wait "$child" || status=$?
  child=""
  return "$status"
}

# ---- Build (Release only) ---------------------------------------------------
mkdir -p "$build"
if [[ -f "$build/CMakeCache.txt" ]] &&
   ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$build/CMakeCache.txt"; then
  echo "run.sh: $build is not a Release build; refusing to measure it" >&2
  exit 2
fi
jobs="$(nproc 2>/dev/null || echo 4)"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       run_child cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release; } \
       >"$build/build.log" 2>&1 ||
   ! run_child cmake --build "$build" -j "$jobs" >>"$build/build.log" 2>&1; then
  echo "run.sh: build failed; last lines of $build/build.log:" >&2
  tail -n 30 "$build/build.log" >&2
  exit 2
fi
e2e="$build/e2e"

case "$mode" in
  golden)
    run_child "$e2e" --write-golden --golden bench/e2e/golden.json \
      --work-dir "$build"
    exit $? ;;
  compare)
    run_child "$build/compare" --benchmark BENCHMARK.json "${compare_args[@]}"
    exit $? ;;
esac

# ---- Run metadata -----------------------------------------------------------
XAAS_E2E_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
XAAS_E2E_GIT_DIRTY=0
if [[ "$XAAS_E2E_GIT_SHA" != unknown && -n "$(git status --porcelain 2>/dev/null)" ]]; then
  XAAS_E2E_GIT_DIRTY=1
fi
export XAAS_E2E_GIT_SHA XAAS_E2E_GIT_DIRTY

# Untraced results recorded for pairing with traced runs; stale once the
# binary changes.
runs="$build/runs"
stamp="$(stat -c %Y "$e2e")"
if [[ "$(cat "$runs/.stamp" 2>/dev/null || true)" != "$stamp" ]]; then
  rm -rf "$runs"
  mkdir -p "$runs"
  echo "$stamp" >"$runs/.stamp"
fi

results="$build/results.json"
rm -f "$results"
common=(--seed "$seed" --seconds "$seconds" --work-dir "$build"
        --golden bench/e2e/golden.json)
[[ "$smoke" == 1 ]] && common+=(--smoke)

status=0
for w in "${workloads[@]}"; do
  key="$runs/$w-seed$seed-${seconds}s$([[ "$smoke" == 1 ]] && echo -smoke || true).json"
  if [[ "$trace" == 0 ]]; then
    rm -f "$key"
    run_child "$e2e" --workload "$w" "${common[@]}" \
      --result "$results" --result "$key" || status=$?
    continue
  fi
  if [[ ! -f "$key" ]]; then
    echo "$w: no untraced run with seed $seed recorded; running it first" >&2
    run_child "$e2e" --workload "$w" "${common[@]}" --result "$key" >&2 || status=$?
  fi
  run_child "$e2e" --workload "$w" "${common[@]}" --trace \
    --baseline "$key" --result "$results" || status=$?
done

[[ -z "$out" ]] || cp "$results" "$out"
if [[ ${#workloads[@]} -gt 1 ]]; then
  summary=(--summary "$results")
  [[ "$trace" == 1 ]] && summary+=(--trace)
  run_child "$e2e" "${summary[@]}" || status=$?
fi
exit "$status"
