#!/usr/bin/env bash
# Builds and tests the project under ThreadSanitizer and ASan+UBSan.
#
#   scripts/run_sanitizers.sh [thread|address]...
#
# With no arguments both sanitizers run.  Each uses its own build tree
# (build-tsan / build-asan) so the regular build/ stays untouched.
# Benchmarks are skipped: google-benchmark is rarely built with the
# sanitizer runtimes, and the unit + integration tests cover the
# concurrency paths (streams, resilient scheduler) the sanitizers exist
# to check.
set -euo pipefail
cd "$(dirname "$0")/.."

run_one() {
  local kind=$1 dir flags
  case "$kind" in
    thread)  dir=build-tsan ;;
    address) dir=build-asan ;;
    *) echo "unknown sanitizer '$kind' (want thread or address)" >&2
       exit 2 ;;
  esac
  echo "=== $kind sanitizer -> $dir ==="
  cmake -B "$dir" -S . \
      -DMPSIM_SANITIZE="$kind" \
      -DMPSIM_BUILD_BENCH=OFF \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  # The explicit SIMD kernels do raw intrinsic loads/stores and the
  # diagonal-batched executor claims row chunks across pool workers; run
  # the dispatch bit-equality suite once per MPSIM_SIMD level so the env
  # request path and every kernel variant sit under the sanitizer (the
  # level clamps to the host, so this is safe on any machine).
  # The wide-d goldens join them: d = 65..2100 sizes the per-lane NaN
  # scratch from d and, past next_pow2(d) = 2048, moves the row pipeline's
  # column block to per-thread heap scratch.
  for level in scalar f16c avx2 avx512 avx512fp16; do
    MPSIM_SIMD=$level "$dir"/tests/test_simd_dispatch \
        --gtest_filter='SimdDispatchEquality.PaperModesNanPoisoned:SimdDispatchEquality.BatchedVersusUnbatchedRows'
    MPSIM_SIMD=$level "$dir"/tests/test_golden \
        --gtest_filter='GoldenChecksums.WideDims*'
  done
  if [ "$kind" = address ]; then
    # Scalar against every host level at d = 300 (BF16) and d = 2100
    # (FP16): the vector scans' storage-rounded divisors and the heap
    # block under ASan's bounds checks.
    "$dir"/tests/test_simd_dispatch \
        --gtest_filter='SimdDispatchEquality.*WideScanDivisor'
    # The CSV reader parses cells with from_chars on a view of the file
    # buffer: the differential suite feeds it exact-size heap buffers with
    # no NUL after the last cell, so any read past the end trips ASan.
    "$dir"/tests/test_tsdata --gtest_filter='CsvDifferential.*:CsvIo.*'
    "$dir"/tests/test_serve --gtest_filter='CsvDifferential.*'
  fi
  if [ "$kind" = thread ]; then
    # Hammer the lock-free metrics registry beyond the single CTest pass:
    # repeated runs of the concurrent-recording tests give TSan many more
    # thread interleavings of the relaxed-atomic hot path to inspect.
    "$dir"/tests/test_runtime_metrics \
        --gtest_filter='RuntimeMetrics.Concurrent*' --gtest_repeat=25
    # The watchdog/speculation/cancellation machinery is the raciest code
    # in the tree (monitor thread + per-device workers + first-finisher
    # commits); soak it repeatedly under TSan, then run the full chaos
    # script against the sanitized CLI.
    "$dir"/tests/test_faults \
        --gtest_filter='ResilientScheduler.Watchdog*:ResilientScheduler.RepeatedHangs*' \
        --gtest_repeat=5
    bash tests/chaos_soak_test.sh "$dir"
    # Elastic runs put every simulated node's devices under the one
    # scheduler (monitor + device workers); soak the cross-node recovery
    # paths, the node-crash determinism test (50 crash runs per pass),
    # and the full multi-node identity leg.
    "$dir"/tests/test_cluster --gtest_filter='ElasticCoordinator.*' \
        --gtest_repeat=3
    "$dir"/tests/test_cluster \
        --gtest_filter='ElasticCoordinator.NodeCrashFiresOnEveryRepeat' \
        --gtest_repeat=3
    bash tests/cli_cluster_test.sh "$dir"
    # The serve daemon adds accept/connection/executor threads on top of
    # the scheduler; soak the in-process server end-to-end, the SIGTERM
    # drain-vs-admission race, and the full concurrent-client shell leg
    # under TSan.
    "$dir"/tests/test_serve --gtest_filter='ServeServer.*' --gtest_repeat=5
    "$dir"/tests/test_serve \
        --gtest_filter='ServeJobQueue.ConcurrentDrain*' --gtest_repeat=10
    if command -v python3 >/dev/null; then
      bash tests/cli_serve_test.sh "$dir"
    fi
  fi
}

if [ $# -eq 0 ]; then
  set -- thread address
fi
for kind in "$@"; do
  run_one "$kind"
done
echo "all sanitizer runs passed"
