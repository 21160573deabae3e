// Bit-equality of the runtime SIMD dispatch levels.
//
// Every kernel variant in src/mp/simd/ claims bit-identity with the
// templated scalar bodies; this suite enforces it by running the SAME
// end-to-end computation at every dispatch level (scalar / f16c / avx2,
// clamped to what the host supports) and across the diagonal-batched and
// unbatched row executions, then comparing FNV checksums of the full
// profile + index output.  NaN-poisoned runs (fault-injector staging
// corruption) are included: they drive the kernels' NaN fallbacks, where
// operand-order-dependent hardware NaN propagation would diverge from the
// emulated operators if the screens were wrong.
//
// The dispatch plumbing itself (parse/clamp/env) and the grained
// parallel_for the batched executor relies on are covered at the bottom.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/faults.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/simd/dispatch.hpp"
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

// --- Dispatch plumbing ----------------------------------------------------

TEST(SimdDispatch, ParseAndClamp) {
  using namespace mp::simd;
  DispatchGuard guard;
  EXPECT_EQ(parse_level("scalar"), kScalar);
  EXPECT_EQ(parse_level("f16c"), kF16C);
  EXPECT_EQ(parse_level("avx2"), kAvx2);
  EXPECT_THROW(parse_level("sse9"), ConfigError);
  EXPECT_THROW(apply_option("bogus"), ConfigError);

  // A request above the hardware clamps; at or below it sticks.
  apply_option("avx2");
  EXPECT_EQ(active_level(), detected_level() < kAvx2 ? detected_level()
                                                     : kAvx2);
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
