// QT-only recurrence spans: the skip path of the sketch prefilter
// (mp/sketch.hpp).  A column block the prefilter proves update-free still
// has to advance the Eq. (1) diagonal recurrence — the NEXT row's QT
// depends on this row's — but its distance, sort and profile-merge work
// can be dropped.  These kernels are the QT prefix of the dist_calc spans
// (kernels_f16/avx2/avx512fp16; the native QT-only spans live with their
// dist spans in kernels_native_body.inc), op for op:
//
//   qt = (qt_prev + df_ri * dg_q) + dg_ri * df_q
//
// with the same rounding discipline per type, so the QT stream a
// prefiltered run produces is bit-identical to the exact run's for every
// mode and dispatch level — prefilter misses never contaminate the
// recurrence, only the skipped profile entries.
//
// NaN rule (same as the dist spans): NaN row constants hand the whole
// span back to the scalar loop; a block whose qt lanes go NaN (every
// streamed operand propagates into qt) breaks BEFORE its stores so the
// scalar operators decide the payload.
#pragma once

#include <cstdint>

#include "mp/simd/kernels_f16.hpp"

#ifdef MPSIM_SIMD_F16

namespace mpsim::mp::simd {

/// 8-wide FP16 QT-only span: the QT prefix of dist_calc_span_f16, same
/// per-step round-back via round_lanes_f16, same deterministic-NaN
/// hand-off to the scalar emulated operators.
inline std::int64_t qt_only_span_f16(
    std::int64_t n, float16 df_ri, float16 dg_ri, const float16* qt_prev_m1,
    const float16* MPSIM_SIMD_RESTRICT df_q,
    const float16* MPSIM_SIMD_RESTRICT dg_q, float16* qt_next) {
  if (float16::nan_bits(df_ri.bits()) || float16::nan_bits(dg_ri.bits())) {
    return 0;
  }
  constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  const __m256 v_df_ri = _mm256_set1_ps(float(df_ri));
  const __m256 v_dg_ri = _mm256_set1_ps(float(dg_ri));
  std::int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m256 prev = load_halves(qt_prev_m1 + t);
    const __m256 dgq = load_halves(dg_q + t);
    const __m256 dfq = load_halves(df_q + t);
    const __m256 t1 = round_lanes_f16(_mm256_mul_ps(v_df_ri, dgq));
    const __m256 t2 = round_lanes_f16(_mm256_add_ps(prev, t1));
    const __m256 t3 = round_lanes_f16(_mm256_mul_ps(v_dg_ri, dfq));
    const __m256 qt_f = _mm256_add_ps(t2, t3);
    const __m128i qt_h = _mm256_cvtps_ph(qt_f, kRne);
    // NaN screen on the end of the chain (prev/dgq/dfq all reach qt);
    // break BEFORE the store so finish_binop decides poisoned payloads.
    const __m256 qt = _mm256_cvtph_ps(qt_h);
    if (_mm256_movemask_ps(_mm256_cmp_ps(qt, qt, _CMP_UNORD_Q)) != 0) break;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(qt_next + t), qt_h);
  }
  return t;
}

}  // namespace mpsim::mp::simd

#endif  // MPSIM_SIMD_F16

#ifdef MPSIM_SIMD_AVX2

#include "mp/simd/kernels_avx2.hpp"

#pragma GCC push_options
#pragma GCC target("avx2,f16c")

namespace mpsim::mp::simd::avx2 {

/// BF16/TF32 QT-only span over raw payload words: the QT prefix of
/// dist_calc_span_soft (operands screened before arithmetic, per-step
/// round_soft_lanes re-rounding).
inline std::int64_t qt_only_span_soft(
    int shift, std::int64_t n, std::uint32_t df_ri, std::uint32_t dg_ri,
    const std::uint32_t* qt_prev_m1,
    const std::uint32_t* MPSIM_SIMD_RESTRICT df_q,
    const std::uint32_t* MPSIM_SIMD_RESTRICT dg_q, std::uint32_t* qt_next) {
  const __m128i cnt = _mm_cvtsi32_si128(shift);
  const __m256i bias = _mm256_set1_epi32((1 << (shift - 1)) - 1);
  const __m256i one_i = _mm256_set1_epi32(1);
  const __m256 v_df_ri = widen_soft(_mm256_set1_epi32(int(df_ri)), cnt);
  const __m256 v_dg_ri = widen_soft(_mm256_set1_epi32(int(dg_ri)), cnt);
  if (nan_lanes(v_df_ri) != 0 || nan_lanes(v_dg_ri) != 0) return 0;
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
    if ((nan_lanes(prev) | nan_lanes(dgq) | nan_lanes(dfq)) != 0) break;
    const __m256 t1 = rnd(_mm256_mul_ps(v_df_ri, dgq));
    const __m256 t2 = rnd(_mm256_add_ps(prev, t1));
    const __m256 t3 = rnd(_mm256_mul_ps(v_dg_ri, dfq));
    const __m256 qt = rnd(_mm256_add_ps(t2, t3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(qt_next + t),
                        narrow_soft(qt, cnt));
  }
  return t;
}

}  // namespace mpsim::mp::simd::avx2

#pragma GCC pop_options

#endif  // MPSIM_SIMD_AVX2
