#!/usr/bin/env bash
# Tiered CI harness — the same three jobs .github/workflows/ci.yml runs,
# executable locally: `ci/run_ci.sh [release|asan|tsan|all]` (default all).
#
#   release  ci/check_docs.py (README drift), then
#            RelWithDebInfo, -Werror, unit + smoke under -j, then the
#            bench-smoke tier in its own ctest invocation (RUN_SERIAL
#            benches can't interleave with a parallel unit wave, and the
#            tier gets --timeout headroom for the saturation/fleet/grid
#            runs), then the bench-regression check against
#            ci/bench_baseline.json: one-sided `min` floors are FATAL,
#            ±tolerance drift on noisy means is reported but non-fatal.
#            Last, the benchmark (hammerbench/, its own CMake project over
#            src/) is built and its unit tests run, so a src/ API change
#            that breaks it fails here rather than at the next benchmark run;
#            then the built hammerbench runs each workload for 3 s untraced
#            and `peak` once traced (the per-layer ledger). A nonzero exit
#            fails the job: its self-checks (conservation, ledger ground
#            truth, every signature verifies, every transaction matched)
#            exit 1 when one breaks.
#   asan     -DHAMMER_SANITIZE=address, unit + smoke tests only.
#   tsan     -DHAMMER_SANITIZE=thread,  unit + smoke tests only.
#
# ccache is picked up automatically when installed (the workflow caches
# its directory across runs, keyed on compiler + CMakeLists hashes).
#
# The tier selections use `-L '^unit$|^smoke$'` / `-L '^bench-smoke$'`. The
# anchors matter twice over: multiple -L flags AND together (so `-L unit -L
# smoke` selects tests carrying BOTH labels, i.e. nothing), and -L takes a
# regex (so an unanchored 'smoke' would also match the long 'bench-smoke'
# runs).
set -euo pipefail

cd "$(dirname "$0")/.."

JOB="${1:-all}"
JOBS="${CI_PARALLEL:-$(nproc)}"
# Per-test ceiling for the bench tier: above the longest bench's CMake
# TIMEOUT (600 s) so a loaded runner hits the test's own property first and
# the ctest-level clamp only backstops a genuine hang.
BENCH_TIMEOUT="${CI_BENCH_TIMEOUT:-900}"

banner() { printf '\n=== %s ===\n' "$*"; }

LAUNCHER=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER=(-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

configure_and_build() {
  local dir="$1"; shift
  banner "configure $dir ($*)"
  cmake -B "$dir" -S . -DHAMMER_WERROR=ON "${LAUNCHER[@]}" "$@"
  banner "build $dir"
  cmake --build "$dir" -j "$JOBS"
}

run_release() {
  banner "release: README names every bench binary and smoke test"
  python3 ci/check_docs.py
  configure_and_build build-ci-release -DCMAKE_BUILD_TYPE=RelWithDebInfo
  banner "release: ctest unit + smoke"
  ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L '^unit$|^smoke$'
  banner "release: ctest bench-smoke tier (--timeout ${BENCH_TIMEOUT}s, RUN_SERIAL respected)"
  ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L '^bench-smoke$' \
    --timeout "$BENCH_TIMEOUT"
  banner "release: bench regression check (min floors fatal, drift non-fatal)"
  local rc=0
  python3 ci/check_bench_regression.py --results-dir build-ci-release/bench_results || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "FATAL: bench baseline min-floor violation (checker exit $rc)" >&2
    exit 1
  elif [ "$rc" -eq 1 ]; then
    echo "bench drift outside tolerance (non-fatal; shared runners are noisy)" >&2
  fi
  local bench_dir=build-ci-hammerbench
  banner "release: build the benchmark and run hammerbench_tests"
  cmake -B "$bench_dir" -S hammerbench -DCMAKE_BUILD_TYPE=RelWithDebInfo "${LAUNCHER[@]}"
  cmake --build "$bench_dir" -j "$JOBS" --target hammerbench hammerbench_tests
  "$bench_dir/hammerbench_tests"
  banner "release: hammerbench self-checks (each workload 3 s, then peak traced)"
  for workload in replay peak cluster; do
    "$bench_dir/hammerbench" --workload "$workload" --seed 7 --seconds 3 --trace 0
  done
  "$bench_dir/hammerbench" --workload peak --seed 7 --seconds 3 --trace 1
}

run_sanitizer() {
  local kind="$1" dir="build-ci-$1"
  configure_and_build "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DHAMMER_SANITIZE=$kind"
  banner "$kind: ctest unit + smoke (bench-smoke skipped)"
  # ci/tsan.supp masks exception_ptr refcount false positives from the
  # uninstrumented distro libstdc++ (see the file for the full story).
  TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp ${TSAN_OPTIONS:-}" \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L '^unit$|^smoke$'
}

case "$JOB" in
  release) run_release ;;
  asan)    run_sanitizer address ;;
  tsan)    run_sanitizer thread ;;
  all)
    run_release
    run_sanitizer address
    run_sanitizer thread
    ;;
  *)
    echo "usage: $0 [release|asan|tsan|all]" >&2
    exit 2
    ;;
esac

banner "ci job '$JOB' passed"
