// Golden bit-exactness regression for the end-to-end pipeline.
//
// The execution fast path (table-driven float16 conversion, restructured
// kernel bodies, allocation-free parallel_for, staged input conversion,
// parallel tile merge) is pure plumbing: it must not move a single output
// bit in ANY precision mode.  These checksums were pinned from the
// pre-optimization engine on a fixed synthetic dataset; any drift means an
// optimization silently changed arithmetic, operation order, or rounding.
//
// Two configurations are pinned: multi-tile/multi-device (exercises tile
// staging, scheduling and the merge) and single-tile/single-device (the
// pure kernel path).  FP16C shares Mixed's checksum by design: compensated
// precalculation only changes results when cancellation occurs, which this
// dataset's scale avoids.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/faults.hpp"
#include "mp/kernels.hpp"
#include "mp/matrix_profile.hpp"
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

struct GoldenEntry {
  PrecisionMode mode;
  std::uint64_t checksum;
};

void check_goldens(int tiles, int devices, const GoldenEntry (&golden)[5]) {
  SyntheticSpec spec;
  spec.segments = 400;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 77;
  const auto data = make_synthetic_dataset(spec);

  for (const GoldenEntry& entry : golden) {
    mp::MatrixProfileConfig config;
    config.window = 32;
    config.mode = entry.mode;
    config.tiles = tiles;
    config.devices = devices;
    const auto r =
        mp::compute_matrix_profile(data.reference, data.query, config);
    EXPECT_EQ(result_checksum(r), entry.checksum)
        << to_string(entry.mode) << " tiles=" << tiles
        << " devices=" << devices;
  }
}

// The FP16 dist_calc row may take a hand-written 8-wide F16C loop.  Pin it
// bit-for-bit against the scalar float16 operator sequence it claims to
// mirror, over data laced with infinities and NaNs (NaN blocks must fall
// back to the scalar operators' deterministic propagation rule).  The span
// kernel covers columns 1.. of each dimension row and returns how many it
// handled; the scalar operators finish the row, as in the row pipeline.
TEST(GoldenChecksums, Fp16DistCalcRowMatchesScalarOperators) {
  const std::size_t w = 257, d = 3, nr = 64, m = 32;  // w not a lane multiple
  Rng rng(99);
  auto fill = [&](std::vector<float16>& v, double scale) {
    for (auto& h : v) {
      const double r = rng.uniform(0.0, 1.0);
      if (r < 0.01) {
        h = float16::from_bits(std::uint16_t(rng.uniform_index(1u << 16)));
      } else if (r < 0.02) {
        h = float16::infinity();
      } else {
        h = float16(rng.normal(0.0, scale));
      }
    }
  };
  std::vector<float16> df_r(nr * d), dg_r(nr * d), inv_r(nr * d),
      df_q(w * d), dg_q(w * d), inv_q(w * d), prev(w * d), next(w * d),
      dist(w * d);
  fill(df_r, 0.05);
  fill(dg_r, 0.05);
  fill(inv_r, 0.2);
  fill(df_q, 0.05);
  fill(dg_q, 0.05);
  fill(inv_q, 0.2);
  fill(prev, 1.0);

  const std::size_t i = 7;
  const float16 two_m{double(2 * m)};
  std::int64_t vector_cols = 0;
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t row = k * nr + i;
    const std::size_t x0 = k * w + 1;
    const std::int64_t handled = mp::simd::dist_calc_span<float16>(
        std::int64_t(w - 1), df_r[row], dg_r[row], inv_r[row], two_m,
        prev.data() + x0 - 1, df_q.data() + x0, dg_q.data() + x0,
        inv_q.data() + x0, next.data() + x0, dist.data() + x0);
    vector_cols += handled;
    for (std::size_t x = x0; x < x0 + std::size_t(handled); ++x) {
      const float16 qt = float16(prev[x - 1] + df_r[row] * dg_q[x] +
                                 dg_r[row] * df_q[x]);
      const float16 ref_dist =
          mp::qt_to_distance(qt, inv_r[row], inv_q[x], two_m);
      ASSERT_EQ(next[x].bits(), qt.bits()) << "qt k=" << k << " x=" << x;
      ASSERT_EQ(dist[x].bits(), ref_dist.bits()) << "d k=" << k << " x=" << x;
    }
  }
  if (mp::simd::active_level() >= mp::simd::kF16C) {
    EXPECT_GT(vector_cols, 0);
  }
}

TEST(GoldenChecksums, MultiTileMultiDeviceAllModes) {
  static constexpr GoldenEntry kGolden[5] = {
      {PrecisionMode::FP64, 0x53105cb97409fa7cull},
      {PrecisionMode::FP32, 0xfc23296d1a8a09e0ull},
      {PrecisionMode::FP16, 0x7140c9a9f531c464ull},
      {PrecisionMode::Mixed, 0x1370ffadf92d84abull},
      {PrecisionMode::FP16C, 0x1370ffadf92d84abull},
  };
  check_goldens(/*tiles=*/4, /*devices=*/2, kGolden);
}

TEST(GoldenChecksums, SingleTileSingleDeviceAllModes) {
  static constexpr GoldenEntry kGolden[5] = {
      {PrecisionMode::FP64, 0x6edd781ef9d5e2f1ull},
      {PrecisionMode::FP32, 0x549dcb185e474610ull},
      {PrecisionMode::FP16, 0xb921390f9787adb1ull},
      {PrecisionMode::Mixed, 0x7d29ecfcb7b60248ull},
      {PrecisionMode::FP16C, 0x7d29ecfcb7b60248ull},
  };
  check_goldens(/*tiles=*/1, /*devices=*/1, kGolden);
}

// ---- Wide dimensionalities -----------------------------------------------
//
// d = 65 and 128 sit just past the old 64-row block cap, d = 300 past the
// range where l + 1 is exact in BF16 (the scan divisor), d = 2100 has
// next_pow2(d) = 4096 rows — wider than one fused column block, so the row
// pipeline runs on heap scratch.  Pinned from the three-kernel
// implementation (dist_calc, per-column sort/scan, update) the row
// pipeline replaced at these widths.

template <std::size_t N>
void check_wide_goldens(std::size_t dims, std::size_t segments,
                        std::size_t window, const GoldenEntry (&golden)[N]) {
  SyntheticSpec spec;
  spec.segments = segments;
  spec.dims = dims;
  spec.window = window;
  spec.injections_per_dim = 1;
  spec.seed = 505;
  const auto data = make_synthetic_dataset(spec);
  for (const GoldenEntry& entry : golden) {
    mp::MatrixProfileConfig config;
    config.window = window;
    config.mode = entry.mode;
    config.tiles = 2;
    config.devices = 2;
    const auto r =
        mp::compute_matrix_profile(data.reference, data.query, config);
    EXPECT_EQ(result_checksum(r), entry.checksum)
        << to_string(entry.mode) << " dims=" << dims;
  }
}

TEST(GoldenChecksums, WideDims65AllModes) {
  static constexpr GoldenEntry kGolden[5] = {
      {PrecisionMode::FP64, 0xff816bff3f50b749ull},
      {PrecisionMode::FP32, 0x78bdfe3ad5c3433eull},
      {PrecisionMode::FP16, 0x538b509a97690c97ull},
      {PrecisionMode::Mixed, 0xdbfc0230bc8e86e1ull},
      {PrecisionMode::FP16C, 0xdbfc0230bc8e86e1ull},
  };
  check_wide_goldens(65, 48, 8, kGolden);
}

TEST(GoldenChecksums, WideDims128AllModes) {
  static constexpr GoldenEntry kGolden[5] = {
      {PrecisionMode::FP64, 0x5bbb7c758b1a048cull},
      {PrecisionMode::FP32, 0x0045d1db81869d53ull},
      {PrecisionMode::FP16, 0xd0a657852f6e382cull},
      {PrecisionMode::Mixed, 0x3bb7a4d56b1bb5f0ull},
      {PrecisionMode::FP16C, 0x3bb7a4d56b1bb5f0ull},
  };
  check_wide_goldens(128, 48, 8, kGolden);
}

TEST(GoldenChecksums, WideDims300AllModes) {
  static constexpr GoldenEntry kGolden[5] = {
      {PrecisionMode::FP64, 0x0874b8fcde54dfbeull},
      {PrecisionMode::FP32, 0x8fe2469a6b14efbaull},
      {PrecisionMode::FP16, 0xa868c9ee5e61e50dull},
      {PrecisionMode::Mixed, 0xcda7c12228964a87ull},
      {PrecisionMode::FP16C, 0x470d70122045d3b5ull},
  };
  check_wide_goldens(300, 48, 8, kGolden);
}

TEST(GoldenChecksums, WideDims2100HeapScratch) {
  static constexpr GoldenEntry kGolden[2] = {
      {PrecisionMode::FP64, 0xdb34a0cf9ca1e0f8ull},
      {PrecisionMode::FP16, 0x2a715501f0cf70cfull},
  };
  check_wide_goldens(2100, 24, 6, kGolden);
  // Unbatched rows take the per-row body, whose column block is the part
  // that moves to the heap; batching is pure scheduling, so the same pins.
  mp::set_row_batch_override(1);
  check_wide_goldens(2100, 24, 6, kGolden);
  mp::set_row_batch_override(0);
}

// ---- Row pipeline against the scalar dispatch level ----------------------
//
// The vector kernels of the row pipeline must reproduce the scalar
// operators bit for bit; the scalar level is the reference.

std::uint64_t run_rows(const TimeSeries& reference, const TimeSeries& query,
                       PrecisionMode mode, const char* fault_spec) {
  mp::MatrixProfileConfig config;
  config.window = 32;
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

SyntheticDataset row_dataset(std::size_t dims) {
  SyntheticSpec spec;
  spec.segments = 300;
  spec.dims = dims;
  spec.window = 32;
  spec.injections_per_dim = 2;
  spec.seed = 123;
  return make_synthetic_dataset(spec);
}

void check_rows_match_scalar(std::size_t dims, const char* fault_spec) {
  const auto data = row_dataset(dims);
  for (const PrecisionMode mode : kAllPrecisionModes) {
    mp::simd::set_override(mp::simd::kScalar);
    const auto scalar = run_rows(data.reference, data.query, mode, fault_spec);
    mp::simd::clear_override();
    const auto rows = run_rows(data.reference, data.query, mode, fault_spec);
    EXPECT_EQ(rows, scalar) << to_string(mode) << " dims=" << dims
                            << (fault_spec ? fault_spec : " clean");
  }
}

TEST(RowPathEquality, PaddedNonPowerOfTwoDims) {
  check_rows_match_scalar(3, nullptr);
}

TEST(RowPathEquality, PowerOfTwoDims) { check_rows_match_scalar(4, nullptr); }

TEST(RowPathEquality, FiveDimsGenericPadding) {
  check_rows_match_scalar(5, nullptr);
}

TEST(RowPathEquality, SingleDimSkipSortPath) {
  check_rows_match_scalar(1, nullptr);
}

TEST(RowPathEquality, NanPoisonedDistanceRows) {
  // Staged-input NaN corruption (fault-injector path): the poison reaches
  // the distance rows, exercising the block sort's blend-moves-NaN stages
  // and the vector scans' scalar NaN fallback.  Identical injector seed +
  // single stream means both levels see identical corrupted bytes.
  check_rows_match_scalar(4, "seed=9,nan@0:at=1:frac=0.05");
  check_rows_match_scalar(3, "seed=9,nan@0:at=1:frac=0.10");
}

TEST(RowPathEquality, KernelFaultRetryPath) {
  // A transient kernel fault mid-tile: the attempt restarts from scratch,
  // so the retried result is bit-identical to a clean run.
  const auto data = row_dataset(4);
  for (const PrecisionMode mode : kAllPrecisionModes) {
    const auto clean = run_rows(data.reference, data.query, mode, nullptr);
    const auto faulted = run_rows(data.reference, data.query, mode,
                                  "seed=3,kernel@0:at=2");
    EXPECT_EQ(faulted, clean) << to_string(mode);
  }
}

}  // namespace
}  // namespace mpsim
