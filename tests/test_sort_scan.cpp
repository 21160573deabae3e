// Property tests for the Bitonic sort and fan-in inclusive-scan primitives
// shared by the GPU kernel and the CPU reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "mp/kernels.hpp"
#include "mp/sort_scan.hpp"
#include "precision/float16.hpp"
#include "precision/modes.hpp"

namespace mpsim::mp {
namespace {

TEST(Pow2Helpers, NextPow2AndLog) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
  EXPECT_EQ(log2_pow2(1), 0);
  EXPECT_EQ(log2_pow2(64), 6);
}

TEST(Pow2Helpers, BitTwiddledBoundaryValues) {
  // next_pow2 must keep the historical loop semantics on every boundary,
  // including n = 0 (the loop returned 1 there).
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(7), 8u);
  EXPECT_EQ(next_pow2(8), 8u);
  EXPECT_EQ(next_pow2(9), 16u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_EQ(next_pow2((std::size_t(1) << 31) - 1), std::size_t(1) << 31);
  EXPECT_EQ(next_pow2((std::size_t(1) << 31) + 1), std::size_t(1) << 32);
  EXPECT_EQ(next_pow2(std::size_t(1) << 62), std::size_t(1) << 62);

  // log2_pow2 is ceil(log2(n)) for any n >= 1, like the old loop.
  EXPECT_EQ(log2_pow2(0), 0);
  EXPECT_EQ(log2_pow2(2), 1);
  EXPECT_EQ(log2_pow2(3), 2);
  EXPECT_EQ(log2_pow2(4), 2);
  EXPECT_EQ(log2_pow2(5), 3);
  EXPECT_EQ(log2_pow2(7), 3);
  EXPECT_EQ(log2_pow2(8), 3);
  EXPECT_EQ(log2_pow2(9), 4);
  EXPECT_EQ(log2_pow2(1024), 10);
  EXPECT_EQ(log2_pow2(1025), 11);
  EXPECT_EQ(log2_pow2(std::size_t(1) << 62), 62);
}

TEST(BitonicStages, CountFormula) {
  EXPECT_EQ(bitonic_stage_count(1), 0);
  EXPECT_EQ(bitonic_stage_count(2), 1);
  EXPECT_EQ(bitonic_stage_count(8), 6);
  EXPECT_EQ(bitonic_stage_count(64), 21);   // log=6 -> 21 (O(log^2 d))
  EXPECT_EQ(bitonic_stage_count(256), 36);
}

TEST(ScanSteps, CountFormula) {
  EXPECT_EQ(scan_step_count(1), 0);
  EXPECT_EQ(scan_step_count(2), 1);
  EXPECT_EQ(scan_step_count(8), 3);
  EXPECT_EQ(scan_step_count(9), 4);
  EXPECT_EQ(scan_step_count(64), 6);        // O(log d) fan-in
}

class BitonicSortSizes : public ::testing::TestWithParam<int> {};

TEST_P(BitonicSortSizes, MatchesStdSortOnRandomDoubles) {
  const std::size_t d = std::size_t(GetParam());
  const std::size_t p2 = next_pow2(d);
  Rng rng(1000 + d);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> buf(p2, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < d; ++i) buf[i] = rng.normal(0.0, 10.0);
    std::vector<double> expected(buf.begin(), buf.begin() + std::ptrdiff_t(d));
    std::sort(expected.begin(), expected.end());
    bitonic_sort(buf.data(), p2);
    for (std::size_t i = 0; i < d; ++i) EXPECT_DOUBLE_EQ(buf[i], expected[i]);
    // Padding stays at the top.
    for (std::size_t i = d; i < p2; ++i) EXPECT_TRUE(std::isinf(buf[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(PowersAndOddSizes, BitonicSortSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 27, 32,
                                           64, 100, 128));

TEST(BitonicSort, SortsFloat16WithInfinityPadding) {
  Rng rng(7);
  const std::size_t d = 12, p2 = 16;
  std::vector<float16> buf(p2, std::numeric_limits<float16>::infinity());
  for (std::size_t i = 0; i < d; ++i) buf[i] = float16{rng.normal(0.0, 5.0)};
  bitonic_sort(buf.data(), p2);
  for (std::size_t i = 1; i < d; ++i) {
    EXPECT_LE(double(buf[i - 1]), double(buf[i]));
  }
}

TEST(BitonicSort, BarrierCountMatchesStageFormula) {
  // One group barrier follows each (size, stride) stage on hardware:
  // running the network stage by stage must take bitonic_stage_count
  // stages and sort exactly like bitonic_sort.
  const std::size_t p2 = 64;
  Rng rng(64);
  std::vector<double> staged(p2);
  for (double& v : staged) v = rng.uniform(-1.0, 1.0);
  std::vector<double> whole = staged;
  std::int64_t stages = 0;
  for (std::size_t size = 2; size <= p2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      bitonic_stage(staged.data(), p2, size, stride);
      ++stages;
    }
  }
  bitonic_sort(whole.data(), p2);
  EXPECT_EQ(stages, bitonic_stage_count(p2));
  EXPECT_EQ(staged, whole);
  EXPECT_TRUE(std::is_sorted(staged.begin(), staged.end()));
}

TEST(BitonicSort, HandlesDuplicatesAndSortedInput) {
  std::vector<double> dup{3, 1, 3, 1, 3, 1, 2, 2};
  bitonic_sort(dup.data(), 8);
  EXPECT_TRUE(std::is_sorted(dup.begin(), dup.end()));
  std::vector<double> sorted{1, 2, 3, 4, 5, 6, 7, 8};
  bitonic_sort(sorted.data(), 8);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  std::vector<double> reversed{8, 7, 6, 5, 4, 3, 2, 1};
  bitonic_sort(reversed.data(), 8);
  EXPECT_TRUE(std::is_sorted(reversed.begin(), reversed.end()));
}

class ScanSizes : public ::testing::TestWithParam<int> {};

TEST_P(ScanSizes, MatchesPrefixAverageInDouble) {
  const std::size_t d = std::size_t(GetParam());
  Rng rng(2000 + d);
  std::vector<double> x(d), scratch(d);
  std::vector<double> original(d);
  for (std::size_t i = 0; i < d; ++i) {
    x[i] = rng.uniform(0.0, 10.0);
    original[i] = x[i];
  }
  inclusive_scan_average(x.data(), scratch.data(), d);
  double running = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    running += original[i];
    EXPECT_NEAR(x[i], running / double(i + 1), 1e-12) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(VariousLengths, ScanSizes,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 15, 16, 33, 64));

TEST(Scan, BarrierCountIsTwoPerStep) {
  // The modelled sort_&_incl_scan barrier rounds: one after the gather,
  // one per Bitonic stage, two (read, write) per fan-in scan step.
  EXPECT_EQ(sort_scan_barrier_rounds(1), 1);
  EXPECT_EQ(sort_scan_barrier_rounds(2), 1 + 1 + 2 * 1);
  EXPECT_EQ(sort_scan_barrier_rounds(16), 1 + 10 + 2 * 4);
  EXPECT_EQ(sort_scan_barrier_rounds(17), 1 + 15 + 2 * 5);
  EXPECT_EQ(sort_scan_barrier_rounds(2100), 1 + 78 + 2 * 12);
}

TEST(Scan, Float16RoundsEveryStep) {
  // 2048 + 1 + 1 + 1 in FP16: the log-step tree adds (1+1)=2 first, so the
  // result differs from sequential FP16 summation — the scan order is part
  // of the kernel contract, so pin it here.
  std::vector<float16> x{float16{2048.0}, float16{1.0}, float16{1.0},
                         float16{1.0}};
  std::vector<float16> scratch(4);
  inclusive_scan_average(x.data(), scratch.data(), 4);
  // Prefix sums (tree order): [2048, 2048(+1 lost), 2048+1+1=2050, 2051->?]
  EXPECT_DOUBLE_EQ(double(x[0]), 2048.0);
  EXPECT_DOUBLE_EQ(double(x[1]), 1024.0);  // 2048 / 2 after lost +1
  // x[2]: step1: x2 = 1+1 = 2; step2: x2 += x0 = 2050; avg = 683.3->half
  EXPECT_NEAR(double(x[2]), 2050.0 / 3.0, 0.5);
}

TEST(Scan, IdenticalOrderForCpuAndKernelUse) {
  // The helper is deterministic: same input, same output, across calls
  // (this is what guarantees FP64 CPU == GPU equality).
  Rng rng(3);
  std::vector<double> a(64), b(64), scratch(64);
  for (std::size_t i = 0; i < 64; ++i) a[i] = b[i] = rng.normal();
  inclusive_scan_average(a.data(), scratch.data(), 64);
  inclusive_scan_average(b.data(), scratch.data(), 64);
  EXPECT_EQ(a, b);
}

// ---- Fixed-network / fused-block bit-equality ----------------------------

// Fills a padded column with a mix of normals, infinities and raw-bit NaNs
// (exercising payload preservation), padding [d, p2) with +inf.
template <typename T>
void fill_column(Rng& rng, T* vals, std::size_t d, std::size_t p2) {
  for (std::size_t i = 0; i < d; ++i) {
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.06) {
      vals[i] = std::numeric_limits<T>::quiet_NaN();
    } else if (r < 0.12) {
      vals[i] = std::numeric_limits<T>::infinity();
    } else {
      vals[i] = T(rng.uniform(0.0, 10.0));
    }
  }
  for (std::size_t i = d; i < p2; ++i) {
    vals[i] = std::numeric_limits<T>::infinity();
  }
}

template <typename T>
void expect_bytes_equal(const T* a, const T* b, std::size_t n,
                        const char* what) {
  EXPECT_EQ(std::memcmp(a, b, n * sizeof(T)), 0) << what;
}

// sort_scan_column (fixed networks for d <= 8, generic beyond, divide-by-1
// for d == 1) must be byte-identical to the generic
// bitonic_sort + inclusive_scan_average sequence — NaN payloads included.
template <typename T>
void check_column_matches_generic(std::size_t d) {
  const std::size_t p2 = next_pow2(d);
  Rng rng(4000 + d);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<T> fixed(p2), generic(p2), scratch(p2);
    fill_column(rng, generic.data(), d, p2);
    fixed = generic;
    sort_scan_column(fixed.data(), d);
    bitonic_sort(generic.data(), p2);
    inclusive_scan_average(generic.data(), scratch.data(), d);
    expect_bytes_equal(fixed.data(), generic.data(), d, "sort_scan_column");
  }
}

class FixedNetworkSizes : public ::testing::TestWithParam<int> {};

TEST_P(FixedNetworkSizes, ColumnMatchesGenericDouble) {
  check_column_matches_generic<double>(std::size_t(GetParam()));
}

TEST_P(FixedNetworkSizes, ColumnMatchesGenericFloat16) {
  check_column_matches_generic<float16>(std::size_t(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllSmallAndGenericSizes, FixedNetworkSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 13,
                                           16, 64));

// The fused engine's block sort/scan (row-wise networks, F16C vector path
// for float16, scalar fallback for the other emulated types) must be
// byte-identical, column for column, to sort_scan_column — on a block
// width that is not a lane multiple and with NaN/inf-laced rows.
template <typename T>
void check_block_matches_columns(std::size_t d) {
  const std::size_t p2 = next_pow2(d);
  const std::size_t bn = 101;  // not a multiple of the 8-wide f16 groups
  Rng rng(5000 + d);
  std::vector<T> blk(p2 * bn);
  for (std::size_t jj = 0; jj < bn; ++jj) {
    std::vector<T> col(p2);
    fill_column(rng, col.data(), d, p2);
    for (std::size_t l = 0; l < p2; ++l) blk[l * bn + jj] = col[l];
  }
  std::vector<T> expect_blk = blk;

  sort_scan_block(blk.data(), bn, bn, d);

  for (std::size_t jj = 0; jj < bn; ++jj) {
    std::vector<T> col(p2);
    for (std::size_t l = 0; l < p2; ++l) col[l] = expect_blk[l * bn + jj];
    sort_scan_column(col.data(), d);
    for (std::size_t l = 0; l < d; ++l) {
      expect_bytes_equal(&blk[l * bn + jj], &col[l], 1, "sort_scan_block");
    }
  }
}

class FusedBlockSizes : public ::testing::TestWithParam<int> {};

TEST_P(FusedBlockSizes, MatchesPerColumnDouble) {
  check_block_matches_columns<double>(std::size_t(GetParam()));
}

TEST_P(FusedBlockSizes, MatchesPerColumnFloat) {
  check_block_matches_columns<float>(std::size_t(GetParam()));
}

TEST_P(FusedBlockSizes, MatchesPerColumnFloat16) {
  check_block_matches_columns<float16>(std::size_t(GetParam()));
}

TEST_P(FusedBlockSizes, MatchesPerColumnBfloat16) {
  using BT = PrecisionTraits<PrecisionMode::BF16>::Storage;
  check_block_matches_columns<BT>(std::size_t(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(PaddedAndPowerSizes, FusedBlockSizes,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16, 65,
                                           300));

TEST(ScanAverageColumn, MatchesScratchVersion) {
  // The in-place descending update must reproduce the scratch round-trip
  // version byte for byte (it feeds the f16 NaN fallback and the generic
  // column path).
  for (std::size_t d : {1u, 2u, 3u, 5u, 8u, 13u, 64u}) {
    Rng rng(6000 + d);
    std::vector<double> a(d), b(d), scratch(d);
    for (std::size_t i = 0; i < d; ++i) a[i] = b[i] = rng.uniform(0.0, 10.0);
    scan_average_column(a.data(), d);
    inclusive_scan_average(b.data(), scratch.data(), d);
    expect_bytes_equal(a.data(), b.data(), d, "scan_average_column");
  }
}

// When two NaNs meet in one scan add, every scan keeps row l's payload
// (x[l] + x[l - offset] returns x[l] quieted), as the engine's row_add
// does: the CPU reference (std::sort + inclusive_scan_average, as in
// cpu_reference.cpp) and the engine (sort_scan_block, sort_scan_column)
// must give the same NaN bits on columns mixing two NaN payloads.
template <typename T, typename Bits>
void check_nan_payloads_match_reference(std::size_t d, Bits qnan_bits,
                                        Bits other_nan_bits) {
  const T a = std::bit_cast<T>(qnan_bits);
  const T b = std::bit_cast<T>(other_nan_bits);
  const T inf = std::numeric_limits<T>::infinity();
  std::vector<std::vector<T>> patterns(3, std::vector<T>(d, T(1)));
  patterns[0][0] = a;
  patterns[0][1] = b;
  patterns[1][0] = b;
  patterns[1][1] = a;
  patterns[2][d - 2] = a;
  patterns[2][d - 1] = b;

  const std::size_t p2 = next_pow2(d);
  const std::size_t bn = 19;  // not a lane multiple: epilogues run too
  std::vector<T> blk(p2 * bn, inf);
  std::vector<std::vector<T>> expect(bn);
  for (std::size_t jj = 0; jj < bn; ++jj) {
    const std::vector<T>& col = patterns[jj % patterns.size()];
    std::vector<T> ref = col, scratch(d);
    std::sort(ref.begin(), ref.end());
    // Precondition: std::sort and the Bitonic network leave each pattern
    // in the same order, so only the scan decides the NaN bits.
    std::vector<T> net = col;
    net.resize(p2, inf);
    bitonic_sort(net.data(), p2);
    ASSERT_EQ(std::memcmp(ref.data(), net.data(), d * sizeof(T)), 0);
    inclusive_scan_average(ref.data(), scratch.data(), d);

    std::vector<T> column = col;
    column.resize(p2, inf);
    sort_scan_column(column.data(), d);
    expect_bytes_equal(column.data(), ref.data(), d, "sort_scan_column");
    for (std::size_t l = 0; l < d; ++l) blk[l * bn + jj] = col[l];
    expect[jj] = std::move(ref);
  }
  sort_scan_block(blk.data(), bn, bn, d);
  for (std::size_t jj = 0; jj < bn; ++jj) {
    for (std::size_t l = 0; l < d; ++l) {
      EXPECT_EQ(std::bit_cast<Bits>(blk[l * bn + jj]),
                std::bit_cast<Bits>(expect[jj][l]))
          << "d=" << d << " column " << jj << " row " << l;
    }
  }
}

TEST(ScanNanPayload, ReferenceAndEngineAgreeDouble) {
  for (std::size_t d : {4u, 9u}) {
    check_nan_payloads_match_reference<double, std::uint64_t>(
        d, 0x7ff8000000000000ULL, 0xfff8000000000001ULL);
  }
}

TEST(ScanNanPayload, ReferenceAndEngineAgreeFloat) {
  for (std::size_t d : {4u, 9u}) {
    check_nan_payloads_match_reference<float, std::uint32_t>(
        d, 0x7fc00000U, 0xffc00001U);
  }
}

}  // namespace
}  // namespace mpsim::mp
