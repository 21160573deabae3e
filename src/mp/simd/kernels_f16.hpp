// 8-wide F16C kernels of the emulated-FP16 storage family (FP16 / Mixed /
// FP16C modes): the dist_calc recurrence span, the row-wise Bitonic
// compare-exchange and the block scan-average.  Moved here from
// mp/kernels.hpp when the dispatch layer (mp/simd/dispatch.hpp) was
// introduced; selection is now a runtime decision (level >= kF16C), not a
// compile-time #ifdef.
//
// Bit-identity argument, shared by every kernel in this header: scalar
// emulated-half arithmetic widens 8 halves with vcvtph2ps (exact),
// performs ONE binary32 operation, and rounds back with vcvtps2ph (RNE).
// Per lane this is the identical widen-op-round sequence the scalar
// float16 operators execute (double rounding through binary32 is
// innocuous, 24 >= 2*11+2), so the output bits match the scalar loop
// exactly — including overflow to infinity, subnormal halves and
// ISA-default generated NaNs.  Blocks containing a NaN OPERAND drop to
// the scalar operators, whose finish_binop implements the deterministic
// first-NaN-operand sign rule (x86 NaN propagation is operand-order
// dependent and the compiler may commute the wide operation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "mp/simd/dispatch.hpp"
#include "mp/sort_scan.hpp"
#include "precision/float16.hpp"

// The F16C tier needs both the hardware half conversions and AVX.
#if defined(MPSIM_FLOAT16_HW) && defined(__AVX__) && defined(MPSIM_SIMD_X86)
#define MPSIM_SIMD_F16 1
#endif

#ifdef MPSIM_SIMD_F16

namespace mpsim::mp::simd {

/// Round every binary32 lane to binary16 and back: the vector image of one
/// emulated-FP16 operation's result rounding.
inline __m256 round_lanes_f16(__m256 v) {
  return _mm256_cvtph_ps(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

inline __m256 load_halves(const float16* p) {
  return _mm256_cvtph_ps(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// Vectorized dist_calc recurrence over `n` contiguous columns of one
/// dimension row; returns the count of columns processed (a multiple of
/// 8 — the scalar loop finishes the tail).  Pointers are span-relative:
/// lane t reads qt_prev_m1[t] (the previous QT row already shifted one
/// column left), df_q[t], ..., and writes qt_next[t] / dist[t], so the
/// distance sink may live at a different offset than the QT rows (the
/// fused row pipeline writes distances into a stack block).  qt_prev_m1
/// and qt_next carry no restrict qualifier: the diagonal-batched executor
/// updates its QT band in place (qt_next == qt_prev_m1), which is safe
/// because each 8-column block loads its operands before storing its
/// results.  Blocks containing a NaN operand stop the vector loop: NaN
/// sign propagation must follow float16::finish_binop's deterministic
/// first-NaN-operand rule, which only the scalar operators implement —
/// the scalar loop takes over from the first such block.
inline std::int64_t dist_calc_span_f16(
    std::int64_t n, float16 df_ri, float16 dg_ri, float16 inv_ri,
    float16 two_m, const float16* qt_prev_m1,
    const float16* MPSIM_SIMD_RESTRICT df_q,
    const float16* MPSIM_SIMD_RESTRICT dg_q,
    const float16* MPSIM_SIMD_RESTRICT inv_q, float16* qt_next,
    float16* MPSIM_SIMD_RESTRICT dist) {
  // A NaN row constant poisons every column — the vector loop could never
  // store a block, so hand the whole span to the scalar operators up front.
  if (float16::nan_bits(df_ri.bits()) || float16::nan_bits(dg_ri.bits()) ||
      float16::nan_bits(inv_ri.bits())) {
    return 0;
  }
  constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  const __m256 v_df_ri = _mm256_set1_ps(float(df_ri));
  const __m256 v_dg_ri = _mm256_set1_ps(float(dg_ri));
  const __m256 v_inv_ri = _mm256_set1_ps(float(inv_ri));
  const __m256 v_two_m = _mm256_set1_ps(float(two_m));
  const __m256 v_one = _mm256_set1_ps(1.0f);
  const __m256 v_zero = _mm256_setzero_ps();
  std::int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m256 prev = load_halves(qt_prev_m1 + t);
    const __m256 dgq = load_halves(dg_q + t);
    const __m256 dfq = load_halves(df_q + t);
    const __m256 invq = load_halves(inv_q + t);
    // qt = (qt_prev + df_ri * dg_q) + dg_ri * df_q, rounding each step.
    const __m256 t1 = round_lanes_f16(_mm256_mul_ps(v_df_ri, dgq));
    const __m256 t2 = round_lanes_f16(_mm256_add_ps(prev, t1));
    const __m256 t3 = round_lanes_f16(_mm256_mul_ps(v_dg_ri, dfq));
    const __m128i qt_h = _mm256_cvtps_ph(_mm256_add_ps(t2, t3), kRne);
    const __m256 qt = _mm256_cvtph_ps(qt_h);
    // qt_to_distance: sqrt(two_m * (1 - qt*inv_r*inv_q)), clamped at 0.
    const __m256 c1 = round_lanes_f16(_mm256_mul_ps(qt, v_inv_ri));
    const __m256 corr = round_lanes_f16(_mm256_mul_ps(c1, invq));
    const __m256 om = round_lanes_f16(_mm256_sub_ps(v_one, corr));
    const __m256 val = round_lanes_f16(_mm256_mul_ps(v_two_m, om));
    // NaN screen on the END of the chain only: every streamed operand
    // feeds val through NaN-transparent ops (prev/dgq/dfq via qt, invq via
    // corr), so a clean val proves the whole block was NaN-free and the
    // lanes match the scalar operators bit-for-bit.  A NaN val breaks
    // BEFORE any store — hardware NaN propagation need not match
    // finish_binop for values that are thrown away — and the scalar loop
    // redoes the block with the emulated operators.
    if (_mm256_movemask_ps(_mm256_cmp_ps(val, val, _CMP_UNORD_Q)) != 0) {
      break;
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(qt_next + t), qt_h);
    // val < 0 ? 0 : val — clean lanes only by now, sqrt cannot NaN.
    const __m256 lt = _mm256_cmp_ps(val, v_zero, _CMP_LT_OQ);
    const __m256 clamped = _mm256_blendv_ps(val, v_zero, lt);
    const __m128i dist_h = _mm256_cvtps_ph(_mm256_sqrt_ps(clamped), kRne);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dist + t), dist_h);
  }
  return t;
}

/// Row-wise Bitonic compare-exchange between two block rows of emulated
/// halves, 8 columns per step.  The comparison widens to binary32
/// (vcvtph2ps is exact, so f32 `<` on the widened lanes equals the scalar
/// float16 operator< — NaN compares false, +-0 compare equal) and the
/// winning 16-bit payloads are blended RAW: no arithmetic touches the
/// values, so NaN payloads and signed zeros move verbatim, exactly like
/// the scalar std::swap.  No NaN fallback is needed here.
inline void cmpex_rows_f16(float16* MPSIM_SIMD_RESTRICT ra,
                           float16* MPSIM_SIMD_RESTRICT rb, std::size_t bn,
                           bool ascending) {
  std::size_t jj = 0;
  for (; jj + 8 <= bn; jj += 8) {
    const __m128i a16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ra + jj));
    const __m128i b16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rb + jj));
    const __m256 a = _mm256_cvtph_ps(a16);
    const __m256 b = _mm256_cvtph_ps(b16);
    // Mask lanes where the pair is out of order (swap wanted).
    const __m256 m = ascending ? _mm256_cmp_ps(b, a, _CMP_LT_OQ)
                               : _mm256_cmp_ps(a, b, _CMP_LT_OQ);
    // Narrow the 32-bit lane masks to 16 bits (AVX-only: split the f32
    // mask register and saturate-pack; 0 -> 0, -1 -> -1).
    const __m128i lo = _mm_castps_si128(_mm256_castps256_ps128(m));
    const __m128i hi = _mm_castps_si128(_mm256_extractf128_ps(m, 1));
    const __m128i m16 = _mm_packs_epi32(lo, hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ra + jj),
                     _mm_blendv_epi8(a16, b16, m16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rb + jj),
                     _mm_blendv_epi8(b16, a16, m16));
  }
  for (; jj < bn; ++jj) {
    const bool out_of_order =
        ascending ? (rb[jj] < ra[jj]) : (ra[jj] < rb[jj]);
    if (out_of_order) std::swap(ra[jj], rb[jj]);
  }
}

/// 8-bit mask of the NaN halves among the 8 starting at p.
inline unsigned nan_lanes_f16(const float16* p) {
  const __m256 v = _mm256_cvtph_ps(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  return unsigned(_mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)));
}

/// F16C block sort + scan-average.  The sort is blend-only (see
/// cmpex_rows_f16), so it needs no NaN fallback; the scan does arithmetic,
/// so lanes holding a NaN distance take the scalar column path
/// (finish_binop's first-NaN-operand sign rule only the scalar operators
/// implement).  The fallback is PER LANE: the poisoned columns are scanned
/// with the scalar operators into per-thread scratch before the vector scan
/// mutates the block, then scattered over the vector results — the 7 clean
/// neighbours of a poisoned column stay on the vector path (the old
/// group-level fallback dropped all 8).  NaN cannot APPEAR mid-scan from
/// clean inputs — distances are non-negative, so no inf - inf — which is
/// why one pre-scan of the d input rows suffices.
inline void sort_scan_rows_f16(float16* blk, std::size_t bstride,
                               std::size_t bn, std::size_t d) {
  constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  const std::size_t p2 = next_pow2(d);
  for (std::size_t size = 2; size <= p2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      for (std::size_t i = 0; i < p2; ++i) {
        const std::size_t partner = i ^ stride;
        if (partner <= i) continue;
        cmpex_rows_f16(blk + i * bstride, blk + partner * bstride, bn,
                       (i & size) == 0);
      }
    }
  }
  std::size_t jj = 0;
  for (; jj + 8 <= bn; jj += 8) {
    unsigned nan_lanes = 0;
    for (std::size_t l = 0; l < d; ++l) {
      nan_lanes |= nan_lanes_f16(blk + l * bstride + jj);
    }
    const float16* saved = nullptr;
    if (nan_lanes != 0) [[unlikely]] {
      saved = scan_poisoned_columns(blk, bstride, d, jj, nan_lanes);
    }
    for (std::size_t offset = 1; offset < d; offset <<= 1) {
      for (std::size_t l = d; l-- > offset;) {
        const __m256 a = load_halves(blk + l * bstride + jj);
        const __m256 b = load_halves(blk + (l - offset) * bstride + jj);
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(blk + l * bstride + jj),
            _mm256_cvtps_ph(_mm256_add_ps(a, b), kRne));
      }
    }
    for (std::size_t l = 0; l < d; ++l) {
      const __m256 a = load_halves(blk + l * bstride + jj);
      // The scalar divisor float16(double(l + 1)), widened.  l + 1 is a
      // binary16 integer up to 2048; past that it rounds, and since it is
      // exact in binary32 one RNE step matches the scalar conversion.
      __m256 divv = _mm256_set1_ps(float(l + 1));
      if (l >= 2048) divv = round_lanes_f16(divv);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(blk + l * bstride + jj),
                       _mm256_cvtps_ph(_mm256_div_ps(a, divv), kRne));
    }
    if (nan_lanes != 0) [[unlikely]] {
      restore_poisoned_columns(blk, bstride, d, jj, nan_lanes, saved);
    }
  }
  // Tail columns: gather, run the exact scalar float16 scan-average
  // (finish_binop NaN rule included), scatter.
  if (jj < bn) {
    float16* const vals = column_scratch<float16>(d);
    for (; jj < bn; ++jj) {
      for (std::size_t l = 0; l < d; ++l) vals[l] = blk[l * bstride + jj];
      scan_average_column(vals, d);
      for (std::size_t l = 0; l < d; ++l) blk[l * bstride + jj] = vals[l];
    }
  }
}

}  // namespace mpsim::mp::simd

#endif  // MPSIM_SIMD_F16
