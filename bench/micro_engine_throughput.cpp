// Microbenchmarks (google-benchmark) of the simulator's hot paths:
// per-entry host throughput of the three main kernels per precision mode,
// the software float16 conversion/arithmetic primitives, and the CSV
// render/parse layers of the one-shot path.  These track
// performance regressions of the simulation itself (they say nothing
// about GPU performance — that is the roofline model's job).
#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/coordinator.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/kernel.hpp"
#include "mp/gemm.hpp"
#include "mp/kernels.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/simd/span.hpp"
#include "mp/sketch.hpp"
#include "precision/modes.hpp"
#include "serve/render.hpp"
#include "tsdata/io.hpp"
#include "tsdata/synthetic.hpp"

namespace {

using namespace mpsim;
using namespace mpsim::mp;

template <typename Traits>
void BM_DistCalcRow(benchmark::State& state) {
  using ST = typename Traits::Storage;
  const std::size_t w = 4096, d = 8, nr = 4096, m = 64;
  Rng rng(1);
  auto fill = [&](std::vector<ST>& v, double scale) {
    for (auto& x : v) x = ST(rng.normal(0.0, scale));
  };
  std::vector<ST> qt_col(nr * d), df_r(nr * d), dg_r(nr * d), inv_r(nr * d),
      df_q(w * d), dg_q(w * d), inv_q(w * d), prev(w * d), next(w * d),
      dist(w * d);
  fill(qt_col, 1.0);
  fill(df_r, 0.05);
  fill(dg_r, 0.05);
  fill(inv_r, 0.2);
  fill(df_q, 0.05);
  fill(dg_q, 0.05);
  fill(inv_q, 0.2);
  fill(prev, 1.0);

  // Per dimension row: column 0 from the column seed, then the SIMD span
  // (when the dispatch level has one) and the scalar recurrence tail.
  using CT = typename Traits::Compute;
  static_assert(std::is_same_v<CT, ST>, "dist_calc_span needs CT == ST");
  const CT two_m = CT(double(2 * m));
  std::size_t i = 1;
  for (auto _ : state) {
    for (std::size_t k = 0; k < d; ++k) {
      const std::size_t row = k * nr + i, xb = k * w;
      const CT df_ri = df_r[row], dg_ri = dg_r[row], inv_ri = inv_r[row];
      next[xb] = qt_col[row];
      dist[xb] = qt_to_distance(next[xb], inv_ri, inv_q[xb], two_m);
      std::size_t x = xb + 1;
      x += std::size_t(simd::dist_calc_span<CT>(
          std::int64_t(w - 1), df_ri, dg_ri, inv_ri, two_m, prev.data() + x - 1,
          df_q.data() + x, dg_q.data() + x, inv_q.data() + x, next.data() + x,
          dist.data() + x));
      for (; x < xb + w; ++x) {
        next[x] = CT(prev[x - 1] + df_ri * dg_q[x] + dg_ri * df_q[x]);
        dist[x] = qt_to_distance(next[x], inv_ri, inv_q[x], two_m);
      }
    }
    std::swap(prev, next);
    i = i % (nr - 1) + 1;
    benchmark::DoNotOptimize(dist.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(w * d));
}

template <typename Traits>
void BM_FusedSortScan(benchmark::State& state) {
  // The sort_&_incl_scan stage of the row pipeline over one tile row of
  // w columns: row-wise copy of the distance rows into the transposed
  // column block, pad, block sort/scan, row-wise copy out.
  using ST = typename Traits::Storage;
  const std::size_t w = 4096, d = std::size_t(state.range(0));
  const std::size_t p2 = next_pow2(d);
  const std::size_t bcols = kFusedBlockElems / p2;
  Rng rng(2);
  std::vector<ST> dist(w * d), scan(w * d);
  for (auto& x : dist) x = ST(rng.uniform(0.0, 10.0));
  alignas(32) ST blk[kFusedBlockElems];
  const ST inf = std::numeric_limits<ST>::infinity();
  for (auto _ : state) {
    for (std::size_t j0 = 0; j0 < w; j0 += bcols) {
      const std::size_t bn = std::min(bcols, w - j0);
      for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t jj = 0; jj < bn; ++jj) {
          blk[k * bcols + jj] = dist[k * w + j0 + jj];
        }
      }
      for (std::size_t k = d; k < p2; ++k) {
        for (std::size_t jj = 0; jj < bn; ++jj) blk[k * bcols + jj] = inf;
      }
      sort_scan_block(blk, bcols, bn, d);
      for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t jj = 0; jj < bn; ++jj) {
          scan[k * w + j0 + jj] = blk[k * bcols + jj];
        }
      }
    }
    benchmark::DoNotOptimize(scan.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(w * d));
}

template <typename Traits>
void BM_FusedRow(benchmark::State& state) {
  // One full tile row: dist_calc recurrence + block sort/scan + profile
  // merge in a single pass (what the engine runs per unbatched row).
  using ST = typename Traits::Storage;
  const std::size_t w = 4096, d = std::size_t(state.range(0)), nr = 4096,
                    m = 64;
  Rng rng(1);
  auto fill = [&](std::vector<ST>& v, double scale) {
    for (auto& x : v) x = ST(rng.normal(0.0, scale));
  };
  std::vector<ST> qt_row(w * d), qt_col(nr * d), df_r(nr * d), dg_r(nr * d),
      inv_r(nr * d), df_q(w * d), dg_q(w * d), inv_q(w * d), prev(w * d),
      next(w * d), profile(w * d, std::numeric_limits<ST>::infinity());
  std::vector<std::int64_t> index(w * d, -1);
  fill(qt_row, 1.0);
  fill(qt_col, 1.0);
  fill(df_r, 0.05);
  fill(dg_r, 0.05);
  fill(inv_r, 0.2);
  fill(df_q, 0.05);
  fill(dg_q, 0.05);
  fill(inv_q, 0.2);
  fill(prev, 1.0);

  std::size_t i = 1;
  for (auto _ : state) {
    fused_row_body<Traits>(0, std::int64_t(w), i, w, m, d, qt_row.data(),
                           qt_col.data(), nr, df_r.data(), dg_r.data(),
                           inv_r.data(), df_q.data(), dg_q.data(),
                           inv_q.data(), prev.data(), next.data(),
                           std::int64_t(i), 0, 0, profile.data(),
                           index.data());
    std::swap(prev, next);
    i = i % (nr - 1) + 1;
    benchmark::DoNotOptimize(profile.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(w * d));
}

template <typename Traits>
void BM_Precalc(benchmark::State& state) {
  using ST = typename Traits::Storage;
  const std::size_t m = 64, n = 16384;
  Rng rng(5);
  std::vector<ST> series(n + m - 1);
  for (auto& x : series) x = ST(rng.normal(0.0, 1.0));
  std::vector<ST> mu(n), inv(n), df(n), dg(n);
  for (auto _ : state) {
    precalc_dimension<Traits>(series.data(), m, n, mu.data(), inv.data(),
                              df.data(), dg.data());
    benchmark::DoNotOptimize(inv.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(n));
}

template <typename Traits>
struct SeedFixture {
  // One QT seeding problem: a fixed segment dotted against every segment
  // of an n-column sliding series (the first-row seed of an 8192-segment
  // tile), with real sliding means from the precalc step.
  using ST = typename Traits::Storage;
  static constexpr std::size_t m = 256, n = 8192;
  std::vector<ST> slide, mu, inv, df, dg, out;
  ST fmu;

  SeedFixture() : slide(n + m - 1), mu(n), inv(n), df(n), dg(n), out(n) {
    Rng rng(7);
    for (auto& v : slide) v = ST(rng.normal(0.0, 1.0));
    precalc_dimension<Traits>(slide.data(), m, n, mu.data(), inv.data(),
                              df.data(), dg.data());
    fmu = mu[0];
  }
};

template <typename Traits>
void BM_PrecalcNaive(benchmark::State& state) {
  // The seeding loop the blocked GEMM replaced: one centered_dot per
  // output column, re-centring the fixed side every time.
  SeedFixture<Traits> fx;
  for (auto _ : state) {
    for (std::size_t j = 0; j < fx.n; ++j) {
      fx.out[j] = centered_dot<Traits>(fx.slide.data(), fx.slide.data() + j,
                                       fx.m, fx.fmu, fx.mu[j]);
    }
    benchmark::DoNotOptimize(fx.out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(fx.n));
}

template <typename Traits>
void BM_PrecalcGemm(benchmark::State& state) {
  // The same seeds through gemm_sliding_dots (hoisted A-panel + SIMD
  // column panels); output bits are identical to BM_PrecalcNaive's.
  SeedFixture<Traits> fx;
  for (auto _ : state) {
    gemm_sliding_dots<Traits>(fx.slide.data(), fx.fmu, fx.slide.data(),
                              fx.mu.data(), fx.m, 0, fx.n,
                              /*slide_first=*/false, fx.out.data());
    benchmark::DoNotOptimize(fx.out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(fx.n));
}

void BM_SketchBuild(benchmark::State& state) {
  // Chunked-Rademacher sketching of every segment of one tile side
  // (prefix sums + per-segment chunk aggregates + P sign dots).
  const std::size_t m = 512, len = 4096 + m - 1, nseg = 4096;
  Rng rng(9);
  std::vector<float> x(len), mu(nseg), inv(nseg), out(nseg *
                                                      kSketchComponents);
  for (auto& v : x) v = float(rng.normal(0.0, 1.0));
  for (std::size_t j = 0; j < nseg; ++j) {
    double sum = 0.0;
    for (std::size_t t = 0; t < m; ++t) sum += x[j + t];
    mu[j] = float(sum / double(m));
    double ssq = 0.0;
    for (std::size_t t = 0; t < m; ++t) {
      const double c = double(x[j + t]) - double(mu[j]);
      ssq += c * c;
    }
    inv[j] = ssq > 0.0 ? float(1.0 / std::sqrt(ssq)) : 0.0f;
  }
  const auto signs = rademacher_signs(sketch_chunks(m), kSketchComponents,
                                      sketch_seed(m, kSketchComponents, 0.05));
  for (auto _ : state) {
    sketch_series(x.data(), len, nseg, m, mu.data(), inv.data(),
                  signs.data(), kSketchComponents, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(nseg));
}

void BM_SketchFilter(benchmark::State& state) {
  // Scoring throughput of the per-(row batch, column group) interval
  // bound: one full tile sweep per iteration, items = (row, column)
  // pairs gated.
  using F16T = PrecisionTraits<PrecisionMode::FP16>;
  const std::size_t m = 512, nrq = 4096, len = nrq + m - 1, d = 2;
  Rng rng(11);
  std::vector<float16> series(len * d), mu(nrq * d), inv(nrq * d),
      df(nrq * d), dg(nrq * d);
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t t = 0; t < len; ++t) {
      series[k * len + t] =
          float16(std::sin(double(t) / 60.0) + rng.normal(0.0, 0.02));
    }
    precalc_dimension<F16T>(series.data() + k * len, m, nrq,
                            mu.data() + k * nrq, inv.data() + k * nrq,
                            df.data() + k * nrq, dg.data() + k * nrq);
  }
  PrefilterConfig config;
  config.mode = PrefilterMode::kSketch;
  config.budget = 0.05;
  TilePrefilter pf(config, m, d, nrq, nrq);
  pf.build<F16T>(series.data(), len, mu.data(), inv.data(), series.data(),
                 len, mu.data(), inv.data());
  // A converged low profile: the representative regime where blocks are
  // skippable and the scoring loop does full interval-product work.
  std::vector<float16> profile(nrq * d, float16(3.0));
  for (auto _ : state) {
    for (std::size_t i0 = 0; i0 < nrq; i0 += kPrefilterRowBatch) {
      pf.score_batch<F16T>(profile.data(), i0,
                           std::min(kPrefilterRowBatch, nrq - i0));
    }
    benchmark::DoNotOptimize(pf.stats());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(nrq) * std::int64_t(nrq));
}

void BM_Float16Encode(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> values(4096);
  for (auto& v : values) v = rng.normal(0.0, 100.0);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const double v : values) acc += float16::encode(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 4096);
}

void BM_Float16EncodeFast(benchmark::State& state) {
  // The table-driven branch-light path the float16 constructor uses.
  Rng rng(3);
  std::vector<double> values(4096);
  for (auto& v : values) v = rng.normal(0.0, 100.0);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const double v : values) acc += float16::encode_fast(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 4096);
}

void BM_Float16Decode(benchmark::State& state) {
  // half -> double via the 65536-entry decode table (operator double).
  Rng rng(6);
  std::vector<float16> values(4096);
  for (auto& v : values) v = float16{rng.normal(0.0, 100.0)};
  for (auto _ : state) {
    double acc = 0.0;
    for (const float16 v : values) acc += double(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 4096);
}

void BM_ParallelForDispatch(benchmark::State& state) {
  // Launch overhead of one parallel_for over a body that does trivial
  // work: this is the per-kernel dispatch cost paid 3x per tile row.
  ThreadPool pool;
  const std::size_t n = std::size_t(state.range(0));
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
      sink.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}

void BM_RowBatchDispatch(benchmark::State& state) {
  // Dispatch-overhead amortisation of the diagonal-batched row executor:
  // one grained parallel_for over the nq + bt - 1 diagonals of a bt-row
  // batch replaces bt plain per-row dispatches.  bt == 1 is the unbatched
  // per-row cost; larger bt shows the per-ROW dispatch cost shrinking.
  // items/s counts ROWS retired per second, so the sweep is comparable
  // across batch sizes.
  ThreadPool pool;
  const std::size_t nq = 64;  // small tile: the dispatch-bound regime
  const std::size_t bt = std::size_t(state.range(0));
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for_grained(nq + bt - 1, bt,
                              [&](std::size_t b, std::size_t e) {
                                sink.fetch_add(e - b,
                                               std::memory_order_relaxed);
                              });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(bt));
}

void BM_CoordinatorDispatch(benchmark::State& state) {
  // Per-tile overhead of elastic multi-node runs: one full tiny
  // matrix-profile run per iteration (8 tiles, 2 devices per node),
  // items = tiles retired per second.  nodes == 1 is the plain
  // single-node cost; larger node counts add the node-level accounting,
  // cross-node stealing and lifecycle spans on top.
  const int nodes = int(state.range(0));
  SyntheticSpec spec;
  spec.segments = 128;
  spec.dims = 1;
  spec.window = 16;
  spec.injections_per_dim = 1;
  const auto data = make_synthetic_dataset(spec);
  MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  cluster::ElasticClusterConfig elastic;
  elastic.nodes = nodes;
  for (auto _ : state) {
    auto result = cluster::compute_matrix_profile_elastic(
        data.reference, data.query, config, elastic);
    benchmark::DoNotOptimize(result.profile.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(config.tiles));
}

void BM_Float16Arithmetic(benchmark::State& state) {
  Rng rng(4);
  std::vector<float16> a(4096), b(4096);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = float16{rng.normal()};
    b[i] = float16{rng.normal()};
  }
  for (auto _ : state) {
    float16 acc{0.0};
    for (std::size_t i = 0; i < a.size(); ++i) acc = acc + a[i] * b[i];
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 4096 * 2);
}

// The CSV layers of the one-shot path at batch_modes' size (8192 segments
// x 4 dims, window 64): rendering the profile document and parsing an
// input series file.  Items are cells (one profile/index pair or one
// sample); the byte rate is the one perfbench reports per layer.
constexpr std::size_t kCsvSegments = 8192, kCsvDims = 4, kCsvWindow = 64;

void BM_ProfileToCsv(benchmark::State& state) {
  Rng rng(7);
  mp::MatrixProfileResult result;
  result.segments = kCsvSegments;
  result.dims = kCsvDims;
  result.profile.resize(kCsvSegments * kCsvDims);
  result.index.resize(kCsvSegments * kCsvDims);
  for (auto& v : result.profile) v = rng.uniform(0.0, 16.0);
  for (auto& v : result.index) {
    v = std::int64_t(rng.uniform_index(kCsvSegments));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string csv = serve::profile_to_csv(result);
    bytes = csv.size();
    benchmark::DoNotOptimize(csv.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kCsvSegments * kCsvDims));
  state.SetBytesProcessed(std::int64_t(state.iterations() * bytes));
}

void BM_ReadCsv(benchmark::State& state) {
  SyntheticSpec spec;
  spec.segments = kCsvSegments;
  spec.dims = kCsvDims;
  spec.window = kCsvWindow;
  spec.seed = 1;
  const TimeSeries series = make_synthetic_dataset(spec).reference;
  const std::string path =
      (std::filesystem::temp_directory_path() / "mpsim_bm_read.csv").string();
  write_csv(path, series);
  const auto bytes = std::int64_t(std::filesystem::file_size(path));
  for (auto _ : state) {
    const TimeSeries back = read_csv(path);
    benchmark::DoNotOptimize(back.raw().data());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(series.length() * series.dims()));
  state.SetBytesProcessed(std::int64_t(state.iterations()) * bytes);
}

using F64 = PrecisionTraits<PrecisionMode::FP64>;
using F32 = PrecisionTraits<PrecisionMode::FP32>;
using F16 = PrecisionTraits<PrecisionMode::FP16>;
using BF16 = PrecisionTraits<PrecisionMode::BF16>;
using TF32 = PrecisionTraits<PrecisionMode::TF32>;

}  // namespace

BENCHMARK(BM_DistCalcRow<F64>);
BENCHMARK(BM_DistCalcRow<F32>);
BENCHMARK(BM_DistCalcRow<F16>);
BENCHMARK(BM_DistCalcRow<BF16>);
BENCHMARK(BM_DistCalcRow<TF32>);
BENCHMARK(BM_FusedSortScan<F64>)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8)->Arg(128);
BENCHMARK(BM_FusedSortScan<F32>)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8)->Arg(128);
BENCHMARK(BM_FusedSortScan<F16>)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8)->Arg(128);
BENCHMARK(BM_FusedRow<F64>)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FusedRow<F32>)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FusedRow<F16>)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_Precalc<F64>);
BENCHMARK(BM_Precalc<F32>);
BENCHMARK(BM_Precalc<F16>);
BENCHMARK(BM_PrecalcNaive<F32>);
BENCHMARK(BM_PrecalcNaive<F16>);
BENCHMARK(BM_PrecalcGemm<F32>);
BENCHMARK(BM_PrecalcGemm<F16>);
BENCHMARK(BM_SketchBuild);
BENCHMARK(BM_SketchFilter);
BENCHMARK(BM_Float16Encode);
BENCHMARK(BM_Float16EncodeFast);
BENCHMARK(BM_Float16Decode);
BENCHMARK(BM_Float16Arithmetic);
BENCHMARK(BM_ParallelForDispatch)->Arg(64)->Arg(4096);
BENCHMARK(BM_RowBatchDispatch)->Arg(1)->Arg(8)->Arg(32);
BENCHMARK(BM_CoordinatorDispatch)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_ProfileToCsv);
BENCHMARK(BM_ReadCsv);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The SIMD levels of this host and run: scripts/check_perf.sh gates a
  // row only when the host reaches the level its baseline was pinned at.
  benchmark::AddCustomContext("simd_detected",
      mpsim::mp::simd::to_string(mpsim::mp::simd::detected_level()));
  benchmark::AddCustomContext("simd_active",
      mpsim::mp::simd::to_string(mpsim::mp::simd::active_level()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
