// 32-lane native-half kernels of the emulated-FP16 storage family (FP16 /
// Mixed / FP16C modes), compiled into a `#pragma GCC target("avx512fp16")`
// region and runtime-gated by the cpuid probe (dispatch.hpp): the
// dist_calc and QT-only recurrence spans, the row-wise Bitonic
// compare-exchange, the block scan-average and the fused-row profile
// merge.  This is the CPU image of the paper's per-op `__half` units.
//
// Bit-identity argument.  vaddph / vsubph / vmulph / vdivph / vsqrtph are
// correctly rounded binary16 operations (RNE; FP16 instructions handle
// subnormal operands and results in hardware, independent of
// MXCSR.DAZ/FTZ).  The scalar float16 operators — and the F16C tier —
// widen to binary32 (exact), perform one binary32 operation and round
// back once; by Figueroa's theorem (24 >= 2*11+2) that double rounding is
// innocuous for +, -, *, / and sqrt, so it also yields the correctly
// rounded binary16 result.  Per lane the native op therefore equals the
// scalar operator bit-for-bit, including overflow to infinity, subnormal
// results and signed zeros.
//
// Contraction.  The `_mm512_*_ph` intrinsics are plain vector operators in
// GCC, and the C++ default -ffp-contract=fast would fuse a mul followed by
// an add into one vfmadd*ph — a single rounding where the scalar
// reference rounds twice.  The region is therefore compiled with
// fp-contract=off; the contraction guard in tests/test_simd_dispatch.cpp
// fails by name if that ever slips.
//
// NaN rule (same as the F16C kernels).  x86 NaN propagation is
// operand-order dependent, while the scalar operators pin NaN results to
// finish_binop's first-NaN-operand rule.  The recurrence spans refuse NaN
// row constants and screen the end of each block's chain, breaking BEFORE
// any store; the scan callers (span.hpp) run columns holding a NaN
// distance through the scalar operators.  The compare-exchange and the
// merge do no arithmetic — mask compares (LT_OQ == float16 operator<:
// false on NaN, +-0 equal) and raw 16-bit moves — so NaN payloads and
// signed zeros move verbatim and need no fallback.
//
// Tails run as masked loads/stores of the final partial 32-lane block, so
// a span leaves no scalar tail unless a NaN forces the fallback.  Like
// kernels_avx2.hpp these are concrete functions on raw payload words; the
// typed glue in span.hpp casts float16 pointers at the call boundary, and
// scalar fallbacks live there, outside this target region.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mp/simd/dispatch.hpp"

#ifdef MPSIM_SIMD_AVX512FP16

#include <immintrin.h>

#pragma GCC push_options
#pragma GCC target("avx512fp16,avx512bw,avx512vl,avx512f")
#pragma GCC optimize("fp-contract=off")

namespace mpsim::mp::simd::avx512fp16 {

inline constexpr std::size_t kLanes = 32;

/// Mask of the first min(lanes, 32) lanes.
inline __mmask32 lane_mask(std::size_t lanes) {
  return lanes >= kLanes ? __mmask32(~0u) : __mmask32((1u << lanes) - 1u);
}

/// Runs body(j, k) over columns [0, n) in 32-lane blocks: every full block
/// with the constant all-ones mask (the masked moves fold to plain vector
/// moves, which store-forward), then one masked tail block.  body returns
/// false to stop early; the result is the count of columns it completed.
template <typename Body>
[[gnu::always_inline]] inline std::size_t for_each_block(std::size_t n,
                                                         Body&& body) {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    if (!body(j, __mmask32(~0u))) return j;
  }
  if (j < n && !body(j, lane_mask(n - j))) return j;
  return n;
}

inline bool nan_half(std::uint16_t bits) { return (bits & 0x7fffu) > 0x7c00u; }

inline __m512h splat(std::uint16_t bits) {
  return _mm512_castsi512_ph(_mm512_set1_epi16(std::int16_t(bits)));
}

/// Masked load of 32 halves; inactive lanes read as +0 and never fault.
[[gnu::always_inline]] inline __m512i load_raw(__mmask32 k,
                                               const std::uint16_t* p) {
  return _mm512_maskz_loadu_epi16(k, p);
}

[[gnu::always_inline]] inline __m512h load(__mmask32 k,
                                           const std::uint16_t* p) {
  return _mm512_castsi512_ph(load_raw(k, p));
}

[[gnu::always_inline]] inline void store_raw(std::uint16_t* p, __mmask32 k,
                                             __m512i v) {
  _mm512_mask_storeu_epi16(p, k, v);
}

[[gnu::always_inline]] inline void store(std::uint16_t* p, __mmask32 k,
                                         __m512h v) {
  store_raw(p, k, _mm512_castph_si512(v));
}

/// Native-half dist_calc span; pointer contract of dist_calc_span_f16
/// (span-relative, qt_prev_m1 pre-shifted one column left, in-place
/// qt_next == qt_prev_m1 allowed: every block loads before it stores).
/// Returns columns processed: n, or the start of the first block whose
/// chain went NaN (0 when a row constant is NaN).
inline std::int64_t dist_calc_span(
    std::int64_t n, std::uint16_t df_ri, std::uint16_t dg_ri,
    std::uint16_t inv_ri, std::uint16_t two_m,
    const std::uint16_t* qt_prev_m1,
    const std::uint16_t* MPSIM_SIMD_RESTRICT df_q,
    const std::uint16_t* MPSIM_SIMD_RESTRICT dg_q,
    const std::uint16_t* MPSIM_SIMD_RESTRICT inv_q, std::uint16_t* qt_next,
    std::uint16_t* MPSIM_SIMD_RESTRICT dist) {
  if (n <= 0 || nan_half(df_ri) || nan_half(dg_ri) || nan_half(inv_ri)) {
    return 0;
  }
  const __m512h v_df_ri = splat(df_ri);
  const __m512h v_dg_ri = splat(dg_ri);
  const __m512h v_inv_ri = splat(inv_ri);
  const __m512h v_two_m = splat(two_m);
  const __m512h v_one = splat(0x3c00);
  const __m512h v_zero = _mm512_setzero_ph();
  return std::int64_t(for_each_block(
      std::size_t(n),
      [&](std::size_t t, __mmask32 k) __attribute__((always_inline)) {
        const __m512h prev = load(k, qt_prev_m1 + t);
        const __m512h dgq = load(k, dg_q + t);
        const __m512h dfq = load(k, df_q + t);
        const __m512h invq = load(k, inv_q + t);
        // qt = (qt_prev + df_ri * dg_q) + dg_ri * df_q, rounding each step.
        const __m512h qt = _mm512_add_ph(
            _mm512_add_ph(prev, _mm512_mul_ph(v_df_ri, dgq)),
            _mm512_mul_ph(v_dg_ri, dfq));
        // qt_to_distance: sqrt(two_m * (1 - qt*inv_r*inv_q)), clamped at 0.
        const __m512h corr =
            _mm512_mul_ph(_mm512_mul_ph(qt, v_inv_ri), invq);
        const __m512h val =
            _mm512_mul_ph(v_two_m, _mm512_sub_ph(v_one, corr));
        // End-of-chain NaN screen over the active lanes: every streamed
        // operand reaches val through NaN-transparent ops, so a clean val
        // proves the block NaN-free (masked-off lanes compute on zeros and
        // may go NaN harmlessly).  Break before any store.
        if (_mm512_mask_cmp_ph_mask(k, val, val, _CMP_UNORD_Q) != 0) {
          return false;
        }
        store(qt_next + t, k, qt);
        // val < 0 ? +0 : val — -0 keeps its sign like the scalar select.
        const __mmask32 neg = _mm512_cmp_ph_mask(val, v_zero, _CMP_LT_OQ);
        store(dist + t, k,
              _mm512_sqrt_ph(_mm512_mask_blend_ph(neg, val, v_zero)));
        return true;
      }));
}

/// Native-half QT-only span (the prefilter's skip path): the QT prefix of
/// dist_calc_span op for op, screened on qt; same return contract.
inline std::int64_t qt_only_span(std::int64_t n, std::uint16_t df_ri,
                                 std::uint16_t dg_ri,
                                 const std::uint16_t* qt_prev_m1,
                                 const std::uint16_t* MPSIM_SIMD_RESTRICT df_q,
                                 const std::uint16_t* MPSIM_SIMD_RESTRICT dg_q,
                                 std::uint16_t* qt_next) {
  if (n <= 0 || nan_half(df_ri) || nan_half(dg_ri)) return 0;
  const __m512h v_df_ri = splat(df_ri);
  const __m512h v_dg_ri = splat(dg_ri);
  return std::int64_t(for_each_block(
      std::size_t(n),
      [&](std::size_t t, __mmask32 k) __attribute__((always_inline)) {
        const __m512h qt = _mm512_add_ph(
            _mm512_add_ph(load(k, qt_prev_m1 + t),
                          _mm512_mul_ph(v_df_ri, load(k, dg_q + t))),
            _mm512_mul_ph(v_dg_ri, load(k, df_q + t)));
        if (_mm512_mask_cmp_ph_mask(k, qt, qt, _CMP_UNORD_Q) != 0) {
          return false;
        }
        store(qt_next + t, k, qt);
        return true;
      }));
}

/// Row-wise Bitonic compare-exchange between two block rows over all `bn`
/// columns: a mask compare picks the out-of-order lanes and a raw 16-bit
/// blend swaps their payloads.
inline void cmpex_rows(std::uint16_t* MPSIM_SIMD_RESTRICT ra,
                       std::uint16_t* MPSIM_SIMD_RESTRICT rb, std::size_t bn,
                       bool ascending) {
  for_each_block(bn, [&](std::size_t j, __mmask32 k)
                         __attribute__((always_inline)) {
    const __m512i a = load_raw(k, ra + j);
    const __m512i b = load_raw(k, rb + j);
    const __m512h ah = _mm512_castsi512_ph(a);
    const __m512h bh = _mm512_castsi512_ph(b);
    const __mmask32 swap = ascending ? _mm512_cmp_ph_mask(bh, ah, _CMP_LT_OQ)
                                     : _mm512_cmp_ph_mask(ah, bh, _CMP_LT_OQ);
    store_raw(ra + j, k, _mm512_mask_blend_epi16(swap, a, b));
    store_raw(rb + j, k, _mm512_mask_blend_epi16(swap, b, a));
    return true;
  });
}

/// NaN mask of the `lanes`-column group at jj across the d input rows of
/// a block (pre-scan poison detection for the per-lane scalar fallback).
inline std::uint32_t scan_nan_lanes(const std::uint16_t* blk,
                                    std::size_t bstride, std::size_t d,
                                    std::size_t jj, std::size_t lanes) {
  const __mmask32 k = lane_mask(lanes);
  __mmask32 nan = 0;
  for (std::size_t l = 0; l < d; ++l) {
    const __m512h v = load(k, blk + l * bstride + jj);
    nan |= _mm512_mask_cmp_ph_mask(k, v, v, _CMP_UNORD_Q);
  }
  return nan;
}

/// Vector scan-average of the `lanes`-column group at jj of a sorted
/// block: Hillis–Steele adds high-to-low, then row l divided by the
/// scalar divisor float16(double(l + 1)).  float(l + 1) is exact, so its
/// one RNE conversion to binary16 equals the scalar binary64 rounding —
/// the divisor rounds past 2048.  Row 0's divide by 1 is the identity on
/// the clean lanes this kernel sees, so it is skipped.  NaN cannot appear
/// mid-scan from clean distances (non-negative, so no inf - inf).
inline void scan_rows_group(std::uint16_t* blk, std::size_t bstride,
                            std::size_t d, std::size_t jj, std::size_t lanes) {
  const auto scan = [&](__mmask32 k) __attribute__((always_inline)) {
    std::uint16_t* const col = blk + jj;
    for (std::size_t offset = 1; offset < d; offset <<= 1) {
      for (std::size_t l = d; l-- > offset;) {
        store(col + l * bstride, k,
              _mm512_add_ph(load(k, col + l * bstride),
                            load(k, col + (l - offset) * bstride)));
      }
    }
    for (std::size_t l = 1; l < d; ++l) {
      const __m512h divv = _mm512_set1_ph(_Float16(float(l + 1)));
      store(col + l * bstride, k,
            _mm512_div_ph(load(k, col + l * bstride), divv));
    }
  };
  if (lanes >= kLanes) {
    scan(__mmask32(~0u));
  } else {
    scan(lane_mask(lanes));
  }
}

/// Fused-row profile merge over `n` columns: where src < prof (strict, so
/// NaN never wins and the earliest row keeps ties) prof takes src's raw
/// payload and idx takes `row` (8-lane masked int64 moves).  Handles all
/// n columns.
inline std::int64_t merge_rows(const std::uint16_t* src, std::uint16_t* prof,
                               std::int64_t* idx, std::int64_t n,
                               long long row) {
  if (n <= 0) return 0;
  const __m512i vrow = _mm512_set1_epi64(row);
  for_each_block(std::size_t(n), [&](std::size_t j, __mmask32 k)
                                     __attribute__((always_inline)) {
    const __m512i s = load_raw(k, src + j);
    const __m512i p = load_raw(k, prof + j);
    const __mmask32 take = _mm512_mask_cmp_ph_mask(
        k, _mm512_castsi512_ph(s), _mm512_castsi512_ph(p), _CMP_LT_OQ);
    store_raw(prof + j, k, _mm512_mask_blend_epi16(take, p, s));
    for (std::size_t g = 0; g < kLanes && j + g < std::size_t(n); g += 8) {
      _mm512_mask_storeu_epi64(idx + j + g, __mmask8(take >> g), vrow);
    }
    return true;
  });
  return n;
}

}  // namespace mpsim::mp::simd::avx512fp16

#pragma GCC pop_options

#endif  // MPSIM_SIMD_AVX512FP16
