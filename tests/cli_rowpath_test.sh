#!/usr/bin/env bash
# CTest smoke leg of the row pipeline through the CLI: every --simd
# dispatch level must produce byte-identical profiles, with the scalar
# level as the reference.  Covers a multi-dimensional padded case (d=3),
# the d=1 skip-sort path, a wide case (d=70) past the old 64-row block
# cap, reduced precision, and a NaN fault-injected run.  $1 = build dir.
set -euo pipefail
BUILD=$1
WORK=$(mktemp -d)

cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "cli_rowpath_test FAILED (exit $status) at line ${FAILED_LINE:-?}" >&2
    for log in "$WORK"/*.log; do
      [ -f "$log" ] || continue
      echo "--- $log:" >&2
      cat "$log" >&2
    done
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap 'FAILED_LINE=$LINENO' ERR
trap cleanup EXIT

# Three-sensor CSV (d=3 pads the Bitonic network to 4) and a single-sensor
# projection for the d=1 path.
awk 'BEGIN {
  srand(5); print "a,b,c";
  for (t = 0; t < 400; ++t) {
    a = sin(t / 9.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 13.0) + (rand() - 0.5) * 0.4;
    c = sin(t / 5.0) * 0.7 + (rand() - 0.5) * 0.3;
    printf "%.6f,%.6f,%.6f\n", a, b, c;
  }
}' > "$WORK/ref3.csv"
cut -d, -f1 "$WORK/ref3.csv" > "$WORK/ref1.csv"

# Seventy sensors: next_pow2(d) = 128 rows per column.
awk 'BEGIN {
  srand(7);
  for (k = 0; k < 70; ++k) printf "%s%s", (k ? "," : ""), "s" k;
  print "";
  for (t = 0; t < 160; ++t) {
    for (k = 0; k < 70; ++k) {
      printf "%s%.6f", (k ? "," : ""), sin(t / (5.0 + k)) + (rand() - 0.5) * 0.4;
    }
    print "";
  }
}' > "$WORK/ref70.csv"

run() {  # run <outfile> <extra args...>
  local out=$1
  shift
  "$BUILD/tools/mpsim_cli" --output="$out" "$@" > "${out%.csv}.log"
}

# --simd= is a pure performance knob: every dispatch level must produce
# byte-identical profiles (levels above the host clamp, so asking for
# avx2, avx512 or avx512fp16 is safe anywhere).  BF16 rides along to cover the
# AVX2 payload kernels.
for mode in FP64 FP16 Mixed BF16; do
  run "$WORK/s_scalar_$mode.csv" --reference="$WORK/ref3.csv" \
      --self-join --window=32 --mode="$mode" --tiles=2 --simd=scalar
  for level in f16c avx2 avx512 avx512fp16 auto; do
    run "$WORK/s_${level}_$mode.csv" --reference="$WORK/ref3.csv" \
        --self-join --window=32 --mode="$mode" --tiles=2 --simd="$level"
    cmp "$WORK/s_${level}_$mode.csv" "$WORK/s_scalar_$mode.csv"
  done
done

# d=1: the sort kernel is skipped.
for level in scalar auto; do
  run "$WORK/d1_$level.csv" --reference="$WORK/ref1.csv" --self-join \
      --window=32 --simd="$level"
done
cmp "$WORK/d1_auto.csv" "$WORK/d1_scalar.csv"

# d=70: wide columns run the same pipeline.
for mode in FP64 FP16 BF16; do
  for level in scalar auto; do
    run "$WORK/w_${level}_$mode.csv" --reference="$WORK/ref70.csv" \
        --self-join --window=8 --mode="$mode" --tiles=2 --simd="$level"
  done
  cmp "$WORK/w_auto_$mode.csv" "$WORK/w_scalar_$mode.csv"
done

# NaN-poisoned staged inputs: the same injector seed corrupts the same
# bytes, and the vector kernels' scalar fallbacks must reproduce the
# scalar level's NaN propagation.
for level in scalar auto; do
  run "$WORK/s_${level}_nan.csv" --reference="$WORK/ref3.csv" \
      --self-join --window=32 --mode=FP16 --simd="$level" \
      --faults="seed=9,nan@0:at=1:frac=0.05"
done
cmp "$WORK/s_auto_nan.csv" "$WORK/s_scalar_nan.csv"

# There is one row path; its former selector is an unknown flag.
if "$BUILD/tools/mpsim_cli" --reference="$WORK/ref3.csv" --self-join \
    --window=32 --row-path=cooperative > "$WORK/rowpath.log" 2>&1; then
  echo "--row-path was accepted" >&2
  exit 1
fi
grep -q "unknown flag --row-path" "$WORK/rowpath.log"

# The metrics JSON reports the dispatch variant each stage ran with.
run "$WORK/m.csv" --reference="$WORK/ref3.csv" --self-join \
    --window=32 --mode=FP16 --simd=scalar --metrics-out="$WORK/metrics.json"
for stage in dist_calc sort_scan merge precalc; do
  grep -q "\"simd.$stage.scalar\"" "$WORK/metrics.json" || {
    echo "metrics.json missing simd.$stage.scalar" >&2
    cat "$WORK/metrics.json" >&2
    exit 1
  }
done

echo "cli row-path OK"
