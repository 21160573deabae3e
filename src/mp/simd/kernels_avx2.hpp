// AVX2 kernels, compiled into a `#pragma GCC target("avx2,f16c")` region
// and runtime-gated by the cpuid probe (dispatch.hpp): the BF16/TF32
// dist_calc span and block sort/scan primitives, and the raw-payload
// merge kernels (fused-row profile merge for the emulated storage types,
// CPU-side tile merge for the f64 output profile).
//
// BF16/TF32 representation.  soft_float<M, 8> shares binary32's 8-bit
// exponent, so a payload widens EXACTLY to binary32 by `bits << shift`
// with shift = 23 - M (bf16: 16, tf32: 13) — including subnormals, whose
// ranges coincide.  Every kernel therefore works on widened binary32
// lanes and re-rounds after each operation with round_soft_lanes below:
// integer RNE on the low `shift` bits of the binary32 encoding.  The
// encoding is continuous (mantissa carries roll into the exponent,
// overflow lands exactly on the infinity pattern), so plain integer
// addition implements round-to-nearest-even across normals, subnormals,
// overflow-to-inf and the canonical NaN image.  Per Figueroa's theorem
// the f32 double rounding is innocuous (24 >= 2*8+2 for bf16, 24 >= 2*11+2
// exactly for tf32, for +,-,*,/ and sqrt, in the subnormal range too), so
// each lane reproduces the scalar soft_float operator — which computes in
// binary64 and rounds once — bit-for-bit.
//
// NaN rule (same as the native spans): soft_float::encode always
// canonicalises NaN, but signs differ, so two NaN operands in one
// operation would expose x86's operand-order-dependent propagation.  The
// dist span refuses NaN row constants and breaks on NaN operand blocks;
// the sort/scan callers (span.hpp) run poisoned columns through the
// scalar operators.  The merge kernels do no arithmetic at all (compare +
// raw blend), so they need no fallback: LT_OQ on the widened lanes is
// false for NaN exactly like the scalar operator<.
//
// These are concrete (non-template) functions on raw payload words; the
// templated glue in span.hpp casts soft_float pointers at the call
// boundary and all element access inside happens through may_alias
// intrinsic loads/stores, so no strict-aliasing violation occurs.  Scalar
// tails live in span.hpp OUTSIDE this target region, keeping every scalar
// operation on the exact same code path the scalar dispatch level uses.
#pragma once

#include <cstdint>

#include "mp/simd/dispatch.hpp"

#ifdef MPSIM_SIMD_AVX2

#include <immintrin.h>

#pragma GCC push_options
#pragma GCC target("avx2,f16c")

namespace mpsim::mp::simd::avx2 {

/// Widen 8 soft payloads to binary32 lanes (exact; see header comment).
inline __m256 widen_soft(__m256i payload, __m128i cnt) {
  return _mm256_castsi256_ps(_mm256_sll_epi32(payload, cnt));
}

/// Round every binary32 lane to the soft format and back (RNE), staying in
/// the binary32 encoding.  `cnt` holds the shift, `bias` = (1<<shift-1)-1,
/// `one` = 1.  The bias add never carries into the sign bit: that would
/// require all magnitude bits set, i.e. a NaN with maximal payload, which
/// neither the canonical soft NaNs nor any arithmetic result produces
/// (operand NaNs are filtered before arithmetic).
inline __m256 round_soft_lanes(__m256 v, __m128i cnt, __m256i bias,
                               __m256i one) {
  __m256i u = _mm256_castps_si256(v);
  const __m256i lsb = _mm256_and_si256(_mm256_srl_epi32(u, cnt), one);
  u = _mm256_add_epi32(_mm256_add_epi32(u, lsb), bias);
  u = _mm256_sll_epi32(_mm256_srl_epi32(u, cnt), cnt);
  return _mm256_castsi256_ps(u);
}

/// Narrow rounded-widened lanes back to payloads.
inline __m256i narrow_soft(__m256 v, __m128i cnt) {
  return _mm256_srl_epi32(_mm256_castps_si256(v), cnt);
}

/// 8-bit mask of the NaN lanes among 8 widened payloads.
inline unsigned nan_lanes(__m256 v) {
  return unsigned(_mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)));
}

/// BF16/TF32 dist_calc span over raw payload words; the pointer contract
/// (span-relative, qt_prev_m1 pre-shifted, in-place qt band allowed)
/// matches dist_calc_span_f16.  Returns columns processed (multiple of 8;
/// 0 when a row constant is NaN).
inline std::int64_t dist_calc_span_soft(
    int shift, std::int64_t n, std::uint32_t df_ri, std::uint32_t dg_ri,
    std::uint32_t inv_ri, std::uint32_t two_m,
    const std::uint32_t* qt_prev_m1,
    const std::uint32_t* MPSIM_SIMD_RESTRICT df_q,
    const std::uint32_t* MPSIM_SIMD_RESTRICT dg_q,
    const std::uint32_t* MPSIM_SIMD_RESTRICT inv_q, std::uint32_t* qt_next,
    std::uint32_t* MPSIM_SIMD_RESTRICT dist) {
  const __m128i cnt = _mm_cvtsi32_si128(shift);
  const __m256i bias = _mm256_set1_epi32((1 << (shift - 1)) - 1);
  const __m256i one_i = _mm256_set1_epi32(1);
  const __m256 v_df_ri = widen_soft(_mm256_set1_epi32(int(df_ri)), cnt);
  const __m256 v_dg_ri = widen_soft(_mm256_set1_epi32(int(dg_ri)), cnt);
  const __m256 v_inv_ri = widen_soft(_mm256_set1_epi32(int(inv_ri)), cnt);
  const __m256 v_two_m = widen_soft(_mm256_set1_epi32(int(two_m)), cnt);
  if (nan_lanes(v_df_ri) != 0 || nan_lanes(v_dg_ri) != 0 ||
      nan_lanes(v_inv_ri) != 0) {
    return 0;
  }
  const __m256 v_one = _mm256_set1_ps(1.0f);
  const __m256 v_zero = _mm256_setzero_ps();
  const auto rnd = [&](__m256 v) {
    return round_soft_lanes(v, cnt, bias, one_i);
  };
  std::int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m256 prev = widen_soft(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qt_prev_m1 + t)),
        cnt);
    const __m256 dgq = widen_soft(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dg_q + t)), cnt);
    const __m256 dfq = widen_soft(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(df_q + t)), cnt);
    const __m256 invq = widen_soft(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(inv_q + t)), cnt);
    if ((nan_lanes(prev) | nan_lanes(dgq) | nan_lanes(dfq) |
         nan_lanes(invq)) != 0) {
      break;
    }
    // qt = (qt_prev + df_ri * dg_q) + dg_ri * df_q, rounding each step.
    const __m256 t1 = rnd(_mm256_mul_ps(v_df_ri, dgq));
    const __m256 t2 = rnd(_mm256_add_ps(prev, t1));
    const __m256 t3 = rnd(_mm256_mul_ps(v_dg_ri, dfq));
    const __m256 qt = rnd(_mm256_add_ps(t2, t3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(qt_next + t),
                        narrow_soft(qt, cnt));
    // qt_to_distance: sqrt(two_m * (1 - qt*inv_r*inv_q)), clamped at 0.
    const __m256 c1 = rnd(_mm256_mul_ps(qt, v_inv_ri));
    const __m256 corr = rnd(_mm256_mul_ps(c1, invq));
    const __m256 om = rnd(_mm256_sub_ps(v_one, corr));
    const __m256 val = rnd(_mm256_mul_ps(v_two_m, om));
    // val < 0 ? 0 : val — ordered compare, NaN lanes keep their NaN.
    const __m256 lt = _mm256_cmp_ps(val, v_zero, _CMP_LT_OQ);
    const __m256 clamped = _mm256_blendv_ps(val, v_zero, lt);
    const __m256 dv = rnd(_mm256_sqrt_ps(clamped));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dist + t),
                        narrow_soft(dv, cnt));
  }
  return t;
}

/// Row-wise Bitonic compare-exchange between two soft payload rows, 8
/// columns per step; returns columns processed (multiple of 8 — the
/// caller's scalar tail finishes).  Widened LT_OQ equals the scalar
/// soft_float operator< (both compare the exact widened values, both
/// false on NaN), and the winning payloads blend RAW — no arithmetic, so
/// no NaN fallback, exactly like cmpex_rows_f16.
inline std::size_t cmpex_rows_soft(int shift, std::uint32_t* ra,
                                   std::uint32_t* rb, std::size_t bn,
                                   bool ascending) {
  const __m128i cnt = _mm_cvtsi32_si128(shift);
  std::size_t jj = 0;
  for (; jj + 8 <= bn; jj += 8) {
    const __m256i a32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ra + jj));
    const __m256i b32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rb + jj));
    const __m256 a = widen_soft(a32, cnt);
    const __m256 b = widen_soft(b32, cnt);
    const __m256 m = ascending ? _mm256_cmp_ps(b, a, _CMP_LT_OQ)
                               : _mm256_cmp_ps(a, b, _CMP_LT_OQ);
    const __m256i mi = _mm256_castps_si256(m);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ra + jj),
                        _mm256_blendv_epi8(a32, b32, mi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rb + jj),
                        _mm256_blendv_epi8(b32, a32, mi));
  }
  return jj;
}

/// 8-bit NaN mask of one 8-column group across the d input rows of a soft
/// block (pre-scan poison detection for the per-lane scalar fallback).
inline unsigned scan_nan_lanes_soft(int shift, const std::uint32_t* blk,
                                    std::size_t bstride, std::size_t d,
                                    std::size_t jj) {
  const __m128i cnt = _mm_cvtsi32_si128(shift);
  unsigned mask = 0;
  for (std::size_t l = 0; l < d; ++l) {
    const __m256i p = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(blk + l * bstride + jj));
    mask |= nan_lanes(widen_soft(p, cnt));
  }
  return mask;
}

/// Vector scan-average of one 8-column group of a sorted soft block:
/// Hillis–Steele adds high-to-low, then divide row l by l+1 rounded to the
/// soft format — the scalar divisor T(double(l + 1)) widened; l + 1 itself
/// is not a soft value past 256 (BF16) or 2048 (TF32).  Mirrors the f16
/// group scan in kernels_f16.hpp.
inline void scan_rows_soft_group(int shift, std::uint32_t* blk,
                                 std::size_t bstride, std::size_t d,
                                 std::size_t jj) {
  const __m128i cnt = _mm_cvtsi32_si128(shift);
  const __m256i bias = _mm256_set1_epi32((1 << (shift - 1)) - 1);
  const __m256i one_i = _mm256_set1_epi32(1);
  const auto load = [&](std::size_t l) {
    return widen_soft(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                          blk + l * bstride + jj)),
                      cnt);
  };
  const auto store = [&](std::size_t l, __m256 v) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(blk + l * bstride + jj),
        narrow_soft(v, cnt));
  };
  for (std::size_t offset = 1; offset < d; offset <<= 1) {
    for (std::size_t l = d; l-- > offset;) {
      const __m256 sum = _mm256_add_ps(load(l), load(l - offset));
      store(l, round_soft_lanes(sum, cnt, bias, one_i));
    }
  }
  // l + 1 is a soft-format integer up to 2^(24 - shift); past that the
  // scalar divisor rounds (it is exact in binary32, so one RNE step).
  const std::size_t exact_rows = std::size_t(1) << (24 - shift);
  for (std::size_t l = 0; l < d; ++l) {
    __m256 divv = _mm256_set1_ps(float(l + 1));
    if (l >= exact_rows) divv = round_soft_lanes(divv, cnt, bias, one_i);
    const __m256 q = _mm256_div_ps(load(l), divv);
    store(l, round_soft_lanes(q, cnt, bias, one_i));
  }
}

/// 8-wide fused-row profile merge for emulated halves: where src < prof
/// (widened LT_OQ == float16 operator<: false on NaN, +-0 equal), blend
/// the raw 16-bit payload into prof and the row into idx.  Pure
/// compare-and-blend — no arithmetic, so no NaN fallback.  Returns
/// elements processed (multiple of 8).
inline std::int64_t merge_rows_f16(const std::uint16_t* src,
                                   std::uint16_t* prof, std::int64_t* idx,
                                   std::int64_t n, long long row) {
  const __m256i vrow = _mm256_set1_epi64x(row);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i s16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j));
    const __m128i p16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(prof + j));
    const __m256 s = _mm256_cvtph_ps(s16);
    const __m256 p = _mm256_cvtph_ps(p16);
    const __m256 m = _mm256_cmp_ps(s, p, _CMP_LT_OQ);
    const __m128i lo = _mm_castps_si128(_mm256_castps256_ps128(m));
    const __m128i hi = _mm_castps_si128(_mm256_extractf128_ps(m, 1));
    const __m128i m16 = _mm_packs_epi32(lo, hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(prof + j),
                     _mm_blendv_epi8(p16, s16, m16));
    // Widen the 32-bit lane masks to the 64-bit index lanes (sign-extend:
    // -1 -> -1, 0 -> 0).
    const __m256i m64lo = _mm256_cvtepi32_epi64(lo);
    const __m256i m64hi = _mm256_cvtepi32_epi64(hi);
    const __m256i i0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + j));
    const __m256i i1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + j + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + j),
                        _mm256_blendv_epi8(i0, vrow, m64lo));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + j + 4),
                        _mm256_blendv_epi8(i1, vrow, m64hi));
  }
  return j;
}

/// 8-wide fused-row profile merge for soft payloads; same contract as
/// merge_rows_f16 (widened LT_OQ == soft_float operator<).
inline std::int64_t merge_rows_soft(int shift, const std::uint32_t* src,
                                    std::uint32_t* prof, std::int64_t* idx,
                                    std::int64_t n, long long row) {
  const __m128i cnt = _mm_cvtsi32_si128(shift);
  const __m256i vrow = _mm256_set1_epi64x(row);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i s32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + j));
    const __m256i p32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prof + j));
    const __m256 s = widen_soft(s32, cnt);
    const __m256 p = widen_soft(p32, cnt);
    const __m256i mi = _mm256_castps_si256(_mm256_cmp_ps(s, p, _CMP_LT_OQ));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(prof + j),
                        _mm256_blendv_epi8(p32, s32, mi));
    const __m256i m64lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(mi));
    const __m256i m64hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(mi, 1));
    const __m256i i0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + j));
    const __m256i i1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + j + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + j),
                        _mm256_blendv_epi8(i0, vrow, m64lo));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + j + 4),
                        _mm256_blendv_epi8(i1, vrow, m64hi));
  }
  return j;
}

/// 4-wide CPU-side tile merge of the f64 output profile, implementing the
/// FULL tie rule of merge_tile_results:
///   take = p < dst  ||  (p == dst && src_idx >= 0 &&
///                        (dst_idx < 0 || src_idx < dst_idx))
/// NaN src lanes never win (both compares false); NaN dst lanes are never
/// displaced by an equal — only by a strictly smaller — value, exactly
/// like the scalar loop.  Returns elements processed (multiple of 4).
inline std::int64_t merge_tile_span_f64(const double* sp,
                                        const std::int64_t* si, double* dp,
                                        std::int64_t* di, std::int64_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d p = _mm256_loadu_pd(sp + j);
    const __m256d q = _mm256_loadu_pd(dp + j);
    const __m256i is =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(si + j));
    const __m256i id =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(di + j));
    const __m256d lt = _mm256_cmp_pd(p, q, _CMP_LT_OQ);
    const __m256d eq = _mm256_cmp_pd(p, q, _CMP_EQ_OQ);
    const __m256i src_neg = _mm256_cmpgt_epi64(zero, is);   // src_idx < 0
    const __m256i dst_neg = _mm256_cmpgt_epi64(zero, id);   // dst_idx < 0
    const __m256i src_first = _mm256_cmpgt_epi64(id, is);   // src_idx < dst
    const __m256i tie = _mm256_and_si256(
        _mm256_castpd_si256(eq),
        _mm256_andnot_si256(src_neg, _mm256_or_si256(dst_neg, src_first)));
    const __m256i take = _mm256_or_si256(_mm256_castpd_si256(lt), tie);
    _mm256_storeu_pd(dp + j,
                     _mm256_blendv_pd(q, p, _mm256_castsi256_pd(take)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(di + j),
                        _mm256_blendv_epi8(id, is, take));
  }
  return j;
}

}  // namespace mpsim::mp::simd::avx2

#pragma GCC pop_options

#endif  // MPSIM_SIMD_AVX2
