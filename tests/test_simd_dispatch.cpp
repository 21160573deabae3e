// Bit-equality of the runtime SIMD dispatch levels.
//
// Every kernel variant in src/mp/simd/ claims bit-identity with the
// templated scalar bodies; this suite enforces it by running the SAME
// end-to-end computation at every dispatch level (scalar / f16c / avx2 /
// avx512 / avx512fp16, clamped to what the host supports) and across the
// diagonal-batched and unbatched row executions, then comparing FNV
// checksums of the full profile + index output.  NaN-poisoned runs (fault-injector staging
// corruption) are included: they drive the kernels' NaN fallbacks, where
// operand-order-dependent hardware NaN propagation would diverge from the
// emulated operators if the screens were wrong.
//
// Kernel-level checks follow: a contraction guard run at every level, edge
// cases of the native-half tier against the scalar float16 operators and
// of the AVX-512F f64/f32 rows against the scalar rows, and the exact
// power-of-two scan divisor.  The dispatch plumbing itself
// (parse/clamp/env) and the grained parallel_for the batched executor
// relies on are covered at the bottom.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/faults.hpp"
#include "mp/kernels.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/simd/dispatch.hpp"
#include "mp/simd/span.hpp"
#include "mp/tuning.hpp"
#include "precision/modes.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim {
namespace {

std::uint64_t fnv1a(const unsigned char* p, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t result_checksum(const mp::MatrixProfileResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(reinterpret_cast<const unsigned char*>(r.profile.data()),
            r.profile.size() * sizeof(double), h);
  h = fnv1a(reinterpret_cast<const unsigned char*>(r.index.data()),
            r.index.size() * sizeof(std::int64_t), h);
  return h;
}

// Restores auto dispatch + auto batching however a test exits.
struct DispatchGuard {
  ~DispatchGuard() {
    mp::simd::clear_override();
    mp::set_row_batch_override(0);
  }
};

std::uint64_t run_once(const TimeSeries& reference, const TimeSeries& query,
                       PrecisionMode mode, const char* fault_spec,
                       std::size_t window = 32) {
  mp::MatrixProfileConfig config;
  config.window = window;
  config.mode = mode;
  config.tiles = 1;  // single stream: deterministic fault-injection order
  config.devices = 1;
  gpusim::FaultInjector injector;
  if (fault_spec != nullptr) {
    injector.configure(fault_spec);
    config.fault_injector = &injector;
  }
  return result_checksum(mp::compute_matrix_profile(reference, query, config));
}

// For each precision mode, the checksum must be invariant
// across every dispatch level the host can run.  `modes` lets the soft
// formats (outside kAllPrecisionModes) reuse the harness.
template <std::size_t N>
void check_levels_equal(const PrecisionMode (&modes)[N], std::size_t dims,
                        const char* fault_spec, std::size_t segments = 300,
                        std::size_t window = 32) {
  DispatchGuard guard;
  SyntheticSpec spec;
  spec.segments = segments;
  spec.dims = dims;
  spec.window = window;
  spec.injections_per_dim = 2;
  spec.seed = 123;
  const auto data = make_synthetic_dataset(spec);
  const mp::simd::Level top = mp::simd::detected_level();
  for (const PrecisionMode mode : modes) {
    mp::simd::set_override(mp::simd::kScalar);
    const std::uint64_t scalar_sum =
        run_once(data.reference, data.query, mode, fault_spec, window);
    for (int lv = mp::simd::kF16C; lv <= top; ++lv) {
      mp::simd::set_override(mp::simd::Level(lv));
      const std::uint64_t got =
          run_once(data.reference, data.query, mode, fault_spec, window);
      EXPECT_EQ(got, scalar_sum)
          << to_string(mode)
          << " level=" << mp::simd::to_string(mp::simd::Level(lv))
          << " dims=" << dims << " " << (fault_spec ? fault_spec : "clean");
    }
  }
}

TEST(SimdDispatchEquality, PaperModesClean) {
  check_levels_equal(kAllPrecisionModes, 4, nullptr);
  check_levels_equal(kAllPrecisionModes, 3, nullptr);
}

TEST(SimdDispatchEquality, PaperModesNanPoisoned) {
  // Staged-input NaN corruption reaches the distance rows: the vector
  // kernels must break to the scalar operators exactly where they would
  // see a NaN, or the payload/sign rules drift.
  check_levels_equal(kAllPrecisionModes, 4, "seed=9,nan@0:at=1:frac=0.05");
  check_levels_equal(kAllPrecisionModes, 3, "seed=9,nan@0:at=1:frac=0.10");
}

TEST(SimdDispatchEquality, SoftFormatsCleanAndPoisoned) {
  static constexpr PrecisionMode kSoft[] = {PrecisionMode::BF16,
                                            PrecisionMode::TF32};
  check_levels_equal(kSoft, 4, nullptr);
  check_levels_equal(kSoft, 4, "seed=9,nan@0:at=1:frac=0.05");
}

// Wide columns: the vector scans divide row l by l + 1 rounded to the
// storage format, which differs from the exact binary32 l + 1 once l + 1
// passes 256 (BF16) or 2048 (FP16).
TEST(SimdDispatchEquality, Bf16WideScanDivisor) {
  static constexpr PrecisionMode kBf16[] = {PrecisionMode::BF16};
  check_levels_equal(kBf16, 300, nullptr, 48, 8);
}

TEST(SimdDispatchEquality, Fp16WideScanDivisor) {
  static constexpr PrecisionMode kFp16[] = {PrecisionMode::FP16};
  check_levels_equal(kFp16, 2100, nullptr, 32, 6);
}

TEST(SimdDispatchEquality, KernelFaultRetrySequence) {
  // The dispatch level must not perturb the fault_point sequence: the Nth
  // launch fails at every level and the retried result stays identical.
  check_levels_equal(kAllPrecisionModes, 4, "seed=3,kernel@0:at=2");
}

// The diagonal-batched executor (row batches over parallel_for_grained)
// against forced bt=1, at the top dispatch level and scalar, clean and
// poisoned: batching is pure scheduling, so the bits cannot move.
TEST(SimdDispatchEquality, BatchedVersusUnbatchedRows) {
  DispatchGuard guard;
  SyntheticSpec spec;
  spec.segments = 300;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 123;
  const auto data = make_synthetic_dataset(spec);
  for (const char* fault_spec :
       {(const char*)nullptr, "seed=9,nan@0:at=1:frac=0.05",
        "seed=3,kernel@0:at=2"}) {
    for (const mp::simd::Level lv :
         {mp::simd::kScalar, mp::simd::detected_level()}) {
      mp::simd::set_override(lv);
      for (const PrecisionMode mode : kExtendedPrecisionModes) {
        mp::set_row_batch_override(1);
        const std::uint64_t unbatched =
            run_once(data.reference, data.query, mode, fault_spec);
        mp::set_row_batch_override(16);
        const std::uint64_t batched =
            run_once(data.reference, data.query, mode, fault_spec);
        EXPECT_EQ(batched, unbatched)
            << to_string(mode) << " level=" << mp::simd::to_string(lv) << " "
            << (fault_spec ? fault_spec : "clean");
      }
    }
  }
}

// --- Row kernels against the scalar operators -----------------------------

float16 h(std::uint16_t bits) { return float16::from_bits(bits); }

/// Raw encoding of a half, float or double (NaN payloads and signed zeros
/// compare exactly).
template <typename T>
auto bits_of(T v) {
  if constexpr (std::is_same_v<T, float16>) {
    return v.bits();
  } else {
    using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    U u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  }
}

template <typename T>
T from_bits(std::uint64_t u) {
  if constexpr (std::is_same_v<T, float16>) {
    return h(std::uint16_t(u));
  } else {
    using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    const U narrow = U(u);
    T v;
    std::memcpy(&v, &narrow, sizeof v);
    return v;
  }
}

/// Operands of the row spans over n columns; lane t of the spans reads
/// prev[t] (the pre-shifted previous QT row), df_q[t], dg_q[t], inv_q[t].
template <typename T>
struct Row {
  T df_ri, dg_ri, inv_ri, two_m{64.0};
  std::vector<T> prev, df_q, dg_q, inv_q;
  explicit Row(std::size_t n) : prev(n), df_q(n), dg_q(n), inv_q(n) {}
  std::size_t size() const { return prev.size(); }

  T qt(std::size_t t) const {
    return T(prev[t] + df_ri * dg_q[t] + dg_ri * df_q[t]);
  }
};
using Fp16Row = Row<float16>;

/// dist_calc_span at the active level, finished by the scalar recurrence
/// from wherever the span stopped (exactly the engine's contract).  With
/// `in_place` the QT output overwrites the prev row (the batched
/// executor's band).  Returns the span's handled count.
template <typename T>
std::int64_t run_dist_row(const Row<T>& r, bool in_place, std::vector<T>& qt,
                          std::vector<T>& dist) {
  const std::size_t n = r.size();
  const T sentinel = from_bits<T>(0x1234);
  qt = r.prev;
  dist.assign(n, sentinel);
  std::vector<T> next(n, sentinel);
  T* out = in_place ? qt.data() : next.data();
  const std::int64_t handled = mp::simd::dist_calc_span<T>(
      std::int64_t(n), r.df_ri, r.dg_ri, r.inv_ri, r.two_m, qt.data(),
      r.df_q.data(), r.dg_q.data(), r.inv_q.data(), out, dist.data());
  for (std::size_t t = std::size_t(handled); t < n; ++t) {
    const T q = r.qt(t);
    out[t] = q;
    dist[t] = mp::qt_to_distance(q, r.inv_ri, r.inv_q[t], r.two_m);
  }
  if (!in_place) qt = next;
  return handled;
}

template <typename T>
std::int64_t run_qt_row(const Row<T>& r, std::vector<T>& qt) {
  const std::size_t n = r.size();
  qt.assign(n, from_bits<T>(0x1234));
  const std::int64_t handled = mp::simd::qt_only_span<T>(
      std::int64_t(n), r.df_ri, r.dg_ri, r.prev.data(), r.df_q.data(),
      r.dg_q.data(), qt.data());
  for (std::size_t t = std::size_t(handled); t < n; ++t) qt[t] = r.qt(t);
  return handled;
}

/// Bitwise comparison of both spans against the scalar operators.
template <typename T>
void expect_row_matches_scalar(const Row<T>& r, const char* what) {
  std::vector<T> qt, dist, qt_in_place, dist_in_place, qt_only;
  run_dist_row(r, false, qt, dist);
  run_dist_row(r, true, qt_in_place, dist_in_place);
  run_qt_row(r, qt_only);
  for (std::size_t t = 0; t < r.size(); ++t) {
    const T q = r.qt(t);
    const T dv = mp::qt_to_distance(q, r.inv_ri, r.inv_q[t], r.two_m);
    const auto level = mp::simd::to_string(mp::simd::active_level());
    ASSERT_EQ(bits_of(qt[t]), bits_of(q))
        << what << " qt t=" << t << " " << level;
    ASSERT_EQ(bits_of(dist[t]), bits_of(dv))
        << what << " dist t=" << t << " " << level;
    ASSERT_EQ(bits_of(qt_in_place[t]), bits_of(q))
        << what << " in-place qt t=" << t << " " << level;
    ASSERT_EQ(bits_of(dist_in_place[t]), bits_of(dv))
        << what << " in-place dist t=" << t << " " << level;
    ASSERT_EQ(bits_of(qt_only[t]), bits_of(q))
        << what << " qt_only t=" << t << " " << level;
  }
}

// Contraction guard.  Operands for which a fused a*b + c rounds
// differently from the separately rounded product and sum, at each of the
// three contractible spots of the recurrence (u = the type's epsilon):
//   A: prev + df_ri * dg_q       (df_ri = 1 + u, dg_q = 1 + 2u)
//   C: (...) + dg_ri * df_q      (dg_ri = 1 + u, df_q = 1 + 2u)
//   B: 1 - (qt * inv_ri) * inv_q (qt = 1 + u, inv_q = 1 - u: the product
//      rounds to 1, so only a fused form leaves u^2)
// A kernel built with mul+add contraction (vfmadd) moves QT or the
// distance on these lanes and fails here by name, at whichever level
// compiled it — for halves, doubles and floats.  Levels above the host
// clamp.
template <typename T>
Row<T> contraction_row(T one_pu, T one_p2u, T one_mu) {
  const T one(1.0), minus_one(-1.0);
  // The operands must actually discriminate fused from unfused rounding.
  using std::fma;
  EXPECT_NE(bits_of(fma(one_pu, one_p2u, minus_one)),
            bits_of(T(minus_one + one_pu * one_p2u)));
  EXPECT_NE(bits_of(fma(-one_pu, one_mu, one)),
            bits_of(T(one - one_pu * one_mu)));
  Row<T> r(32 * 3 + 7);  // full blocks of every width and a tail
  r.df_ri = one_pu;
  r.dg_ri = one_pu;
  r.inv_ri = one;
  for (std::size_t t = 0; t < r.size(); ++t) {
    r.inv_q[t] = one;
    switch (t % 3) {
      case 0:  // A
        r.prev[t] = minus_one;
        r.dg_q[t] = one_p2u;
        break;
      case 1:  // C
        r.prev[t] = minus_one;
        r.df_q[t] = one_p2u;
        break;
      default:  // B
        r.prev[t] = one_pu;
        r.inv_q[t] = one_mu;
        break;
    }
  }
  return r;
}

template <typename T>
Row<T> native_contraction_row() {
  const T u = std::numeric_limits<T>::epsilon();
  return contraction_row<T>(T(1) + u, T(1) + 2 * u, T(1) - u);
}

TEST(SimdKernels, NoFmaContractionAtAnyLevel) {
  DispatchGuard guard;
  const auto half_row = contraction_row(h(0x3c01), h(0x3c02), h(0x3bfe));
  const auto double_row = native_contraction_row<double>();
  const auto float_row = native_contraction_row<float>();
  for (int lv = mp::simd::kScalar; lv <= mp::simd::kAvx512Fp16; ++lv) {
    mp::simd::set_override(mp::simd::Level(lv));
    expect_row_matches_scalar(half_row, "contraction guard (half)");
    expect_row_matches_scalar(double_row, "contraction guard (double)");
    expect_row_matches_scalar(float_row, "contraction guard (float)");
  }
}

// Edge cases of the native-half tier, each kernel against the scalar
// operators: subnormal operands and results, overflow to +-inf, signed
// zeros, a NaN at lane 0 and at lane 31, span lengths n % 32 in
// {0, 1, 31}, the in-place band, and a scan past 2048 rows.
class NativeHalfKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (mp::simd::detected_level() < mp::simd::kAvx512Fp16) {
      GTEST_SKIP() << "host lacks AVX-512 FP16";
    }
    mp::simd::set_override(mp::simd::kAvx512Fp16);
  }
  DispatchGuard guard_;
};

/// Mixed-magnitude halves: normals, subnormals, signed zeros and values
/// whose products overflow.
float16 edge_value(Rng& rng) {
  const double r = rng.uniform(0.0, 1.0);
  const double sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
  if (r < 0.15) return h(std::uint16_t(rng.uniform_index(0x400)) |
                         (sign < 0 ? 0x8000 : 0));            // subnormal
  if (r < 0.22) return h(sign < 0 ? 0x8000 : 0x0000);         // +-0
  if (r < 0.30) return float16(sign * rng.uniform(200.0, 60000.0));  // overflow
  if (r < 0.36) return float16(sign * rng.uniform(1e-4, 6e-3));      // tiny
  return float16(sign * rng.uniform(0.0, 2.0));
}

TEST_F(NativeHalfKernels, RowSpansMatchScalarOperators) {
  Rng rng(41);
  for (const std::size_t n : {1ul, 31ul, 32ul, 33ul, 63ul, 64ul, 65ul, 95ul}) {
    for (int rep = 0; rep < 8; ++rep) {
      Fp16Row r(n);
      r.df_ri = edge_value(rng);
      r.dg_ri = edge_value(rng);
      r.inv_ri = edge_value(rng);
      for (std::size_t t = 0; t < n; ++t) {
        r.prev[t] = edge_value(rng);
        r.df_q[t] = edge_value(rng);
        r.dg_q[t] = edge_value(rng);
        r.inv_q[t] = edge_value(rng);
      }
      expect_row_matches_scalar(r, "edge");
      // A clean row has no scalar tail: masked tails cover n % 32.
      std::vector<float16> qt, dist;
      if (run_dist_row(r, false, qt, dist) < std::int64_t(n)) {
        // Only a NaN (e.g. inf * 0 or inf - inf) may stop the span.
        bool any_nan = false;
        for (const float16 v : dist) any_nan |= float16::nan_bits(v.bits());
        EXPECT_TRUE(any_nan) << "n=" << n << " rep=" << rep;
      }
    }
  }
  // Make sure both ends actually occur in a clean span: lanes t % 4 < 2
  // overflow (65504 + 65504), the others sum two subnormal products
  // (3 * 2^-24 + 2^-24 with a -0 or +0 prev).
  Fp16Row r(64);
  r.df_ri = h(0x3c00);
  r.dg_ri = h(0x0001);  // 2^-24
  r.inv_ri = h(0x3c00);
  for (std::size_t t = 0; t < 64; ++t) {
    const bool big = t % 4 < 2;
    r.prev[t] = big ? h(0x7bff) : t % 2 ? h(0x8000) : h(0x0000);
    r.dg_q[t] = big ? h(0x7bff) : h(0x0003);
    r.df_q[t] = h(0x3c00);
    r.inv_q[t] = h(0x3c00);
  }
  std::vector<float16> qt, dist;
  EXPECT_EQ(run_dist_row(r, false, qt, dist), 64);
  EXPECT_EQ(qt[0].bits(), 0x7c00);  // +inf
  EXPECT_EQ(qt[2].bits(), 0x0004);  // 4 * 2^-24, subnormal
  expect_row_matches_scalar(r, "overflow/subnormal");
}

TEST_F(NativeHalfKernels, NanLanesHandOffToScalarOperators) {
  Rng rng(43);
  for (const std::size_t n : {32ul, 64ul, 65ul}) {
    for (const std::size_t lane : {0ul, 31ul}) {
      for (const std::uint16_t nan : {std::uint16_t(0x7e00),
                                      std::uint16_t(0xfd55)}) {
        Fp16Row r(n);
        r.df_ri = float16(rng.uniform(-0.1, 0.1));
        r.dg_ri = float16(rng.uniform(-0.1, 0.1));
        r.inv_ri = float16(rng.uniform(0.1, 0.3));
        for (std::size_t t = 0; t < n; ++t) {
          r.prev[t] = float16(rng.uniform(-1.0, 1.0));
          r.df_q[t] = float16(rng.uniform(-0.1, 0.1));
          r.dg_q[t] = float16(rng.uniform(-0.1, 0.1));
          r.inv_q[t] = float16(rng.uniform(0.1, 0.3));
        }
        r.prev[lane] = h(nan);
        std::vector<float16> qt, dist;
        // The first block holds the NaN, so nothing is stored by the span.
        EXPECT_EQ(run_dist_row(r, false, qt, dist), 0);
        expect_row_matches_scalar(r, "nan operand");
        r.prev[lane] = float16(0.5);
        r.dg_ri = h(nan);  // NaN row constant: whole span to the scalar loop
        EXPECT_EQ(run_dist_row(r, false, qt, dist), 0);
        expect_row_matches_scalar(r, "nan row constant");
      }
    }
  }
}

/// Block sort/scan against the scalar gather path, over the d output rows
/// (the padding rows are scratch; columns past bn must stay untouched):
/// both the dispatched sort_scan_block, which takes the native kernel for
/// d <= 64, and the native kernel itself at any d.
void expect_block_matches_scalar(const std::vector<float16>& blk,
                                 std::size_t bstride, std::size_t bn,
                                 std::size_t d, const char* what) {
  std::vector<float16> ref = blk;
  mp::simd::set_override(mp::simd::kScalar);
  mp::sort_scan_block(ref.data(), bstride, bn, d);
  mp::simd::set_override(mp::simd::kAvx512Fp16);
  std::vector<float16> dispatched = blk, native = blk;
  mp::sort_scan_block(dispatched.data(), bstride, bn, d);
  mp::simd::sort_scan_rows_fp16(native.data(), bstride, bn, d);
  for (std::size_t i = 0; i < d * bstride; ++i) {
    ASSERT_EQ(dispatched[i].bits(), ref[i].bits())
        << what << " dispatched d=" << d << " bn=" << bn
        << " row=" << i / bstride << " col=" << i % bstride;
    ASSERT_EQ(native[i].bits(), ref[i].bits())
        << what << " native d=" << d << " bn=" << bn << " row=" << i / bstride
        << " col=" << i % bstride;
  }
}

/// A padded column block of non-negative distances (the sort/scan
/// domain): subnormals, signed zeros, values whose sums overflow, +inf.
std::vector<float16> edge_block(Rng& rng, std::size_t bstride, std::size_t d) {
  const std::size_t p2 = mp::next_pow2(d);
  std::vector<float16> blk(p2 * bstride, float16::infinity());
  for (std::size_t i = 0; i < d * bstride; ++i) {
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.1) {
      blk[i] = h(std::uint16_t(rng.uniform_index(0x400)));
    } else if (r < 0.15) {
      blk[i] = h(r < 0.125 ? 0x8000 : 0x0000);
    } else if (r < 0.2) {
      blk[i] = float16(rng.uniform(30000.0, 65504.0));
    } else if (r < 0.21) {
      blk[i] = float16::infinity();
    } else {
      blk[i] = float16(rng.uniform(0.0, 16.0));
    }
  }
  return blk;
}

TEST_F(NativeHalfKernels, SortScanMatchesScalarOperators) {
  Rng rng(47);
  for (const std::size_t d : {2ul, 3ul, 4ul, 8ul, 64ul, 70ul}) {
    for (const std::size_t bn : {1ul, 31ul, 32ul, 33ul, 63ul, 64ul, 96ul}) {
      const std::size_t bstride = bn + 5;  // rows wider than the span
      auto blk = edge_block(rng, bstride, d);
      expect_block_matches_scalar(blk, bstride, bn, d, "clean");
      // A NaN distance at lane 0 and lane 31: the per-lane fallback.
      blk[0 * bstride + 0] = h(0x7e00);
      blk[(d - 1) * bstride + std::min<std::size_t>(31, bn - 1)] = h(0xfe00);
      expect_block_matches_scalar(blk, bstride, bn, d, "nan");
    }
  }
}

TEST_F(NativeHalfKernels, SortScanWideDivisor) {
  // Past 2048 rows the scalar divisor float16(double(l + 1)) rounds.
  Rng rng(53);
  const std::size_t d = 2100, bn = 33;
  auto blk = edge_block(rng, bn, d);
  expect_block_matches_scalar(blk, bn, bn, d, "wide");
}

TEST_F(NativeHalfKernels, MergeRowsMatchesScalarSelect) {
  Rng rng(59);
  for (const std::size_t n : {1ul, 31ul, 32ul, 33ul, 64ul, 95ul}) {
    std::vector<float16> src(n), prof(n);
    std::vector<std::int64_t> idx(n + 8, -7);
    for (std::size_t j = 0; j < n; ++j) {
      const double r = rng.uniform(0.0, 1.0);
      src[j] = r < 0.1   ? h(0x7e00)
               : r < 0.2 ? h(0x8000)
               : r < 0.3 ? h(std::uint16_t(rng.uniform_index(0x400)))
                         : float16(rng.uniform(0.0, 4.0));
      prof[j] = j % 5 == 0 ? h(0x0000) : j % 7 == 0 ? src[j]
                : j % 11 == 0 ? h(0xfe00) : float16(rng.uniform(0.0, 4.0));
    }
    std::vector<float16> ref_prof = prof;
    std::vector<std::int64_t> ref_idx = idx;
    for (std::size_t j = 0; j < n; ++j) {
      if (src[j] < ref_prof[j]) {
        ref_prof[j] = src[j];
        ref_idx[j] = 42;
      }
    }
    EXPECT_EQ(mp::simd::merge_rows(src.data(), prof.data(), idx.data(),
                                   std::int64_t(n), 42),
              std::int64_t(n));
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(prof[j].bits(), ref_prof[j].bits()) << "n=" << n << " j=" << j;
    }
    EXPECT_EQ(idx, ref_idx) << "n=" << n;  // no write past n either
  }
}

// Edge cases of the AVX-512F f64/f32 rows, each kernel against the
// scalar rows (sort_scan_block / the merge selects at kScalar): +-0 ties
// in the compare-exchange, +inf distances and pad rows, subnormals,
// column counts n % 8 and n % 16 in {0, 1, 7, 15}, d from 2 to 128, and
// NaN columns — including two distinct NaN payloads meeting in one scan
// add, where the payload that survives depends on operand order.
template <typename T>
class NativeRowKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (mp::simd::detected_level() < mp::simd::kAvx512) {
      GTEST_SKIP() << "host lacks AVX-512F/BW/VL/DQ";
    }
    mp::simd::set_override(mp::simd::kAvx512);
  }
  DispatchGuard guard_;
};
using NativeTypes = ::testing::Types<double, float>;
TYPED_TEST_SUITE(NativeRowKernels, NativeTypes);

constexpr std::size_t kNativeRowWidths[] = {1, 7, 15, 16, 17, 31, 32, 33};

/// A padded column block of non-negative distances: subnormals, signed
/// zeros (ties), large values, +inf, and +inf pad rows.
template <typename T>
std::vector<T> native_edge_block(Rng& rng, std::size_t bstride,
                                 std::size_t d) {
  const T inf = std::numeric_limits<T>::infinity();
  std::vector<T> blk(mp::next_pow2(d) * bstride, inf);
  for (std::size_t i = 0; i < d * bstride; ++i) {
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.1) {
      blk[i] = std::numeric_limits<T>::denorm_min() *
               T(1 + rng.uniform_index(1000));
    } else if (r < 0.2) {
      blk[i] = r < 0.15 ? T(-0.0) : T(0.0);
    } else if (r < 0.25) {
      blk[i] = std::numeric_limits<T>::max() / T(rng.uniform(1.0, 3.0));
    } else if (r < 0.27) {
      blk[i] = inf;
    } else {
      blk[i] = T(rng.uniform(0.0, 16.0));
    }
  }
  return blk;
}

/// sort_scan_block at kAvx512 (dispatched, and the 512-bit kernel called
/// directly for the d it handles) against the scalar rows, over the d
/// output rows.
template <typename T>
void expect_native_block_matches_scalar(const std::vector<T>& blk,
                                        std::size_t bstride, std::size_t bn,
                                        std::size_t d, const char* what) {
  std::vector<T> ref = blk;
  mp::simd::set_override(mp::simd::kScalar);
  mp::sort_scan_block(ref.data(), bstride, bn, d);
  mp::simd::set_override(mp::simd::kAvx512);
  std::vector<T> dispatched = blk, native = blk;
  mp::sort_scan_block(dispatched.data(), bstride, bn, d);
  const bool native_ran =
      mp::simd::avx512::sort_scan_rows(native.data(), bstride, bn, d);
  ASSERT_EQ(native_ran, d <= mp::simd::avx512::kSortMaxDims) << d;
  if (!native_ran) native = ref;
  for (std::size_t i = 0; i < d * bstride; ++i) {
    ASSERT_EQ(bits_of(dispatched[i]), bits_of(ref[i]))
        << what << " dispatched d=" << d << " bn=" << bn
        << " row=" << i / bstride << " col=" << i % bstride;
    ASSERT_EQ(bits_of(native[i]), bits_of(ref[i]))
        << what << " 512-bit d=" << d << " bn=" << bn
        << " row=" << i / bstride << " col=" << i % bstride;
  }
}

TYPED_TEST(NativeRowKernels, SortScanMatchesScalarRows) {
  using T = TypeParam;
  Rng rng(61);
  const T qnan = std::numeric_limits<T>::quiet_NaN();
  const T snan = std::numeric_limits<T>::signaling_NaN();
  // Two payloads that differ from each other and from the ISA-default
  // NaN: a negative quiet NaN with a low payload bit, and +qNaN.
  const T neg_nan = from_bits<T>(bits_of(-qnan) | 1);
  for (const std::size_t d : {2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 9ul, 64ul,
                              128ul}) {
    for (const std::size_t bn : kNativeRowWidths) {
      const std::size_t bstride = bn + 5;  // rows wider than the span
      auto blk = native_edge_block<T>(rng, bstride, d);
      expect_native_block_matches_scalar(blk, bstride, bn, d, "clean");
      // A NaN distance at the first and the last column, then two
      // distinct payloads (and an sNaN) meeting in one scan column.
      const std::size_t last = bn - 1;
      blk[0] = qnan;
      blk[(d - 1) * bstride + last] = neg_nan;
      expect_native_block_matches_scalar(blk, bstride, bn, d, "nan");
      // In every column, so each position of the scalar rows' vector body
      // and epilogues meets the pair.
      for (std::size_t jj = 0; jj < bn; ++jj) {
        blk[0 * bstride + jj] = qnan;
        blk[1 * bstride + jj] = neg_nan;
        if (d > 2 && jj % 2 == 0) blk[2 * bstride + jj] = snan;
      }
      expect_native_block_matches_scalar(blk, bstride, bn, d, "two nans");
    }
  }
}

TYPED_TEST(NativeRowKernels, MergeRowsMatchesScalarSelect) {
  using T = TypeParam;
  Rng rng(67);
  const T qnan = std::numeric_limits<T>::quiet_NaN();
  for (const std::size_t n : kNativeRowWidths) {
    std::vector<T> src(n), prof(n);
    std::vector<std::int64_t> idx(n + 16, -7);
    for (std::size_t j = 0; j < n; ++j) {
      const double r = rng.uniform(0.0, 1.0);
      src[j] = r < 0.1   ? qnan
               : r < 0.2 ? T(-0.0)
               : r < 0.3 ? std::numeric_limits<T>::denorm_min()
                         : T(rng.uniform(0.0, 4.0));
      prof[j] = j % 5 == 0 ? T(0.0) : j % 7 == 0 ? src[j]
                : j % 11 == 0 ? -qnan : T(rng.uniform(0.0, 4.0));
    }
    std::vector<T> ref_prof = prof;
    std::vector<std::int64_t> ref_idx = idx;
    for (std::size_t j = 0; j < n; ++j) {
      if (src[j] < ref_prof[j]) {
        ref_prof[j] = src[j];
        ref_idx[j] = 42;
      }
    }
    EXPECT_EQ(mp::simd::merge_rows(src.data(), prof.data(), idx.data(),
                                   std::int64_t(n), 42),
              std::int64_t(n));
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(bits_of(prof[j]), bits_of(ref_prof[j]))
          << "n=" << n << " j=" << j;
    }
    EXPECT_EQ(idx, ref_idx) << "n=" << n;  // no write past n either
  }
}

TYPED_TEST(NativeRowKernels, RowSpansMatchScalarOperators) {
  using T = TypeParam;
  Rng rng(71);
  const T big = std::numeric_limits<T>::max() / T(4);
  for (const std::size_t n : kNativeRowWidths) {
    for (int rep = 0; rep < 8; ++rep) {
      Row<T> r(n);
      const auto value = [&] {
        const double u = rng.uniform(0.0, 1.0);
        const T sign = rng.uniform(0.0, 1.0) < 0.5 ? T(-1) : T(1);
        if (u < 0.1) return sign * std::numeric_limits<T>::denorm_min();
        if (u < 0.15) return sign * T(0.0);
        if (u < 0.2) return sign * big;  // products overflow to +-inf
        return T(rng.uniform(-2.0, 2.0));
      };
      r.df_ri = value();
      r.dg_ri = value();
      r.inv_ri = value();
      for (std::size_t t = 0; t < n; ++t) {
        r.prev[t] = value();
        r.df_q[t] = value();
        r.dg_q[t] = value();
        r.inv_q[t] = value();
      }
      expect_row_matches_scalar(r, "edge");
      // Two distinct NaN payloads in one lane hand it to the scalar loop.
      r.prev[n / 2] = std::numeric_limits<T>::quiet_NaN();
      r.dg_q[n / 2] = -std::numeric_limits<T>::quiet_NaN();
      expect_row_matches_scalar(r, "nan operands");
    }
  }
}

// The scan-average divides row l by l + 1; the native rows multiply by
// 2^-k instead when l + 1 = 2^k.  Both are the correctly rounded value of
// the same exact quotient, so they agree bitwise on every input class.
template <typename T>
void expect_pow2_reciprocal_exact() {
  using Lim = std::numeric_limits<T>;
  std::vector<T> xs = {T(0.0), T(-0.0), Lim::infinity(), -Lim::infinity(),
                       Lim::quiet_NaN(), -Lim::quiet_NaN(),
                       Lim::signaling_NaN(), Lim::denorm_min(),
                       -Lim::denorm_min(), Lim::min(), Lim::min() * T(3),
                       Lim::max(), T(1.0), T(3.0), T(0.1)};
  Rng rng(73);
  for (int i = 0; i < 20000; ++i) {  // every bit pattern class, uniformly
    xs.push_back(from_bits<T>(std::uint64_t(rng.next_u64())));
  }
  for (int k = 0; k < Lim::max_exponent - 1; ++k) {
    volatile T div = T(std::ldexp(1.0, k));  // not a compile-time constant
    const T inv = T(1) / div;
    for (const T x : xs) {
      ASSERT_EQ(bits_of(T(x / div)), bits_of(T(x * inv)))
          << "k=" << k << " x bits=" << std::uint64_t(bits_of(x));
    }
  }
}

TEST(ScanDivisor, PowerOfTwoReciprocalIsExact) {
  expect_pow2_reciprocal_exact<double>();
  expect_pow2_reciprocal_exact<float>();
}

// --- Dispatch plumbing ----------------------------------------------------

TEST(SimdDispatch, ParseAndClamp) {
  using namespace mp::simd;
  DispatchGuard guard;
  EXPECT_EQ(parse_level("scalar"), kScalar);
  EXPECT_EQ(parse_level("f16c"), kF16C);
  EXPECT_EQ(parse_level("avx2"), kAvx2);
  EXPECT_EQ(parse_level("avx512"), kAvx512);
  EXPECT_EQ(parse_level("avx512fp16"), kAvx512Fp16);
  EXPECT_THROW(parse_level("sse9"), ConfigError);
  EXPECT_THROW(apply_option("bogus"), ConfigError);

  // A request above the hardware clamps; at or below it sticks.
  apply_option("avx2");
  EXPECT_EQ(active_level(), detected_level() < kAvx2 ? detected_level()
                                                     : kAvx2);
  apply_option("avx512");
  EXPECT_EQ(active_level(), detected_level() < kAvx512 ? detected_level()
                                                       : kAvx512);
  apply_option("avx512fp16");
  EXPECT_EQ(active_level(), detected_level());
  apply_option("scalar");
  EXPECT_EQ(active_level(), kScalar);
  apply_option("auto");
  EXPECT_EQ(active_level(), detected_level());
}

// The grained parallel_for the batched executor dispatches rows with:
// every index covered exactly once, chunks never smaller than the grain
// (except the last), on a multi-worker pool.
TEST(SimdDispatch, ParallelForGrainedCoverage) {
  ThreadPool pool(4);
  for (const std::size_t n : {1ul, 7ul, 64ul, 1000ul}) {
    for (const std::size_t grain : {1ul, 3ul, 16ul, 128ul}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> short_chunks{0};
      pool.parallel_for_grained(
          n, grain, [&](std::size_t begin, std::size_t end) {
            ASSERT_LT(begin, end);
            ASSERT_LE(end, n);
            if (end - begin < std::min(grain, n)) short_chunks.fetch_add(1);
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
      // At most the final remainder chunk may run short of the grain.
      EXPECT_LE(short_chunks.load(), 1) << "n=" << n << " grain=" << grain;
    }
  }
}

}  // namespace
}  // namespace mpsim
