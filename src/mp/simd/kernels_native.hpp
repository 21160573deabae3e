// Native f64/f32 row kernels: one width-generic body
// (kernels_native_body.inc) instantiated at two lane widths.
//
//   avx::    4 x f64 / 8 x f32, baseline AVX (the build's -mf16c implies
//            it), 2x unrolled full vectors, scalar tail in the caller: the
//            recurrence spans (dist_calc, QT-only) of the kAvx2 level.
//   avx512:: 8 x f64 / 16 x f32 with masked tails, compiled in an AVX-512F
//            target region: the kAvx512 sort/scan (d <= 8) and profile
//            merge, and the f64 recurrence spans.
//
// Each stage runs the width that measured faster (span.hpp): the f32
// recurrence spans stay on AVX at kAvx512 (kWideNativeSpan), and below
// kAvx512 sort/scan and merge stay on the scalar rows of mp/kernels.hpp,
// which the compiler vectorizes at the build's AVX width.
//
// Bit-identity.  Every lane performs the scalar operation sequence in IEEE
// round-to-nearest (vsqrtpd/vsqrtps are the correctly rounded sqrt), with
// the mul/add steps kept separate.  The AVX-512F target enables EVEX FMA
// and GCC lowers the intrinsics to plain vector operators, which the C++
// default -ffp-contract=fast would fuse into one rounding where the scalar
// code rounds twice — hence fp-contract=off on that region
// (SimdKernels.NoFmaContractionAtAnyLevel fails without it).
// Compare-exchange and merge are mask compares plus raw blends / masked
// stores.  The scan multiplies by 2^-k where the scalar rows do.
//
// NaN handling.  Native precalc does not canonicalise NaN payloads, and
// with two NaN operands x86 returns the first source operand's payload
// while the compiler may commute.  The recurrence spans therefore refuse
// NaN row constants and stop BEFORE storing a block whose chain went NaN
// (the scalar tail re-derives it); the scan pins a NaN-meets-NaN add to
// the payload the scalar rows keep (scan_add).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "mp/simd/dispatch.hpp"

#ifdef MPSIM_SIMD_NATIVE

#include <immintrin.h>

namespace mpsim::mp::simd::avx {

/// Lane selection of a full AVX vector: the spans never run a partial one.
struct AllLanes {};

template <typename T>
struct Lanes;

template <>
struct Lanes<double> {
  using V = __m256d;
  using Sel = AllLanes;
  using Mask = __m256d;
  static constexpr std::size_t kLanes = 4;
  static constexpr int kUnroll = 2;
  static constexpr bool kMaskedTail = false;
  static Sel kAll() { return {}; }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V load(Sel, const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Sel, V v) { _mm256_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V max(V a, V b) { return _mm256_max_pd(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_pd(a); }
  static Mask unord(Sel, V a) { return _mm256_cmp_pd(a, a, _CMP_UNORD_Q); }
  static Mask either(Mask a, Mask b) { return _mm256_or_pd(a, b); }
  static bool any(Mask m) { return _mm256_movemask_pd(m) != 0; }
};

template <>
struct Lanes<float> {
  using V = __m256;
  using Sel = AllLanes;
  using Mask = __m256;
  static constexpr std::size_t kLanes = 8;
  static constexpr int kUnroll = 2;
  static constexpr bool kMaskedTail = false;
  static Sel kAll() { return {}; }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(Sel, const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Sel, V v) { _mm256_storeu_ps(p, v); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_ps(a); }
  static Mask unord(Sel, V a) { return _mm256_cmp_ps(a, a, _CMP_UNORD_Q); }
  static Mask either(Mask a, Mask b) { return _mm256_or_ps(a, b); }
  static bool any(Mask m) { return _mm256_movemask_ps(m) != 0; }
};

#include "mp/simd/kernels_native_body.inc"

}  // namespace mpsim::mp::simd::avx

#endif  // MPSIM_SIMD_NATIVE

#ifdef MPSIM_SIMD_AVX512

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl,avx512dq")
#pragma GCC optimize("fp-contract=off")
// GCC 12 reports the _mm512_undefined_* pass-through operand of
// _mm512_max_pd / _mm512_sqrt_pd as maybe-uninitialized once inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace mpsim::mp::simd::avx512 {

template <typename T>
struct Lanes;

// Sel (load/store lanes) and Mask (compare results) are both opmasks.
// Full blocks pass the constant all-ones mask, which folds the masked
// moves to plain vector moves; masked-off lanes of a load read +0 and
// never fault.
template <>
struct Lanes<double> {
  using V = __m512d;
  using Sel = __mmask8;
  using Mask = __mmask8;
  static constexpr std::size_t kLanes = 8;
  static constexpr int kUnroll = 1;
  static constexpr bool kMaskedTail = true;
  static Sel kAll() { return Sel(0xff); }
  static Sel tail(std::size_t r) { return Sel((1u << r) - 1u); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V load(Sel k, const double* p) { return _mm512_maskz_loadu_pd(k, p); }
  static void store(double* p, Sel k, V v) { _mm512_mask_storeu_pd(p, k, v); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }
  static V max(V a, V b) { return _mm512_max_pd(a, b); }
  static V sqrt(V a) { return _mm512_sqrt_pd(a); }
  static Mask unord(Sel k, V a) {
    return _mm512_mask_cmp_pd_mask(k, a, a, _CMP_UNORD_Q);
  }
  static Mask lt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static V blend(Mask m, V a, V b) { return _mm512_mask_blend_pd(m, a, b); }
  /// v, except a | quiet-bit where a is NaN.
  static V keep_nan(V v, V a) {
    return _mm512_mask_or_pd(v, unord(kAll(), a), a,
                             _mm512_castsi512_pd(_mm512_set1_epi64(1ll << 51)));
  }
  static bool any(Mask m) { return m != 0; }
  static void store_index(std::int64_t* p, Mask m, long long row) {
    _mm512_mask_storeu_epi64(p, m, _mm512_set1_epi64(row));
  }
};

template <>
struct Lanes<float> {
  using V = __m512;
  using Sel = __mmask16;
  using Mask = __mmask16;
  static constexpr std::size_t kLanes = 16;
  static constexpr int kUnroll = 1;
  static constexpr bool kMaskedTail = true;
  static Sel kAll() { return Sel(0xffff); }
  static Sel tail(std::size_t r) { return Sel((1u << r) - 1u); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(Sel k, const float* p) { return _mm512_maskz_loadu_ps(k, p); }
  static void store(float* p, Sel k, V v) { _mm512_mask_storeu_ps(p, k, v); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V max(V a, V b) { return _mm512_max_ps(a, b); }
  static V sqrt(V a) { return _mm512_sqrt_ps(a); }
  static Mask unord(Sel k, V a) {
    return _mm512_mask_cmp_ps_mask(k, a, a, _CMP_UNORD_Q);
  }
  static Mask lt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static V blend(Mask m, V a, V b) { return _mm512_mask_blend_ps(m, a, b); }
  static V keep_nan(V v, V a) {
    return _mm512_mask_or_ps(v, unord(kAll(), a), a,
                             _mm512_castsi512_ps(_mm512_set1_epi32(1 << 22)));
  }
  static bool any(Mask m) { return m != 0; }
  /// 16 int64 index lanes: two 8-lane masked stores.
  static void store_index(std::int64_t* p, Mask m, long long row) {
    const __m512i v = _mm512_set1_epi64(row);
    _mm512_mask_storeu_epi64(p, __mmask8(m), v);
    _mm512_mask_storeu_epi64(p + 8, __mmask8(m >> 8), v);
  }
};

#include "mp/simd/kernels_native_body.inc"

}  // namespace mpsim::mp::simd::avx512

#pragma GCC diagnostic pop
#pragma GCC pop_options

#endif  // MPSIM_SIMD_AVX512
