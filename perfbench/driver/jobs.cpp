#include "jobs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/gemm.hpp"
#include "mp/precalc.hpp"
#include "mp/single_tile.hpp"
#include "mp/staging.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tile_plan.hpp"
#include "serve/render.hpp"
#include "tsdata/io.hpp"

namespace perfbench {

namespace mp = mpsim::mp;
namespace gpusim = mpsim::gpusim;
using mpsim::TimeSeries;

double job_cells(const TimeSeries& reference, const TimeSeries& query,
                 std::size_t window) {
  return double(reference.segment_count(window)) *
         double(query.segment_count(window)) * double(reference.dims());
}

CliJobResult run_cli_job(const CliJob& job, Spans* spans,
                         const std::string& id) {
  ScopedSpan job_span(spans, "job", id);
  const auto stage = [&](const char* name) {
    return ScopedSpan(spans, name, id, job_span.id());
  };

  CliJobResult out;
  const double start = now_s();
  TimeSeries reference, query;
  {
    auto span = stage("tsdata.read_csv");
    reference = mpsim::read_csv(job.reference_csv);
    query = job.query_csv.empty() ? reference
                                  : mpsim::read_csv(job.query_csv);
  }
  {
    auto span = stage("cluster.compute_matrix_profile_elastic");
    out.result = mpsim::cluster::compute_matrix_profile_elastic(
        reference, query, job.config, job.elastic);
  }
  {
    auto span = stage("serve.profile_to_csv");
    out.csv = mpsim::serve::profile_to_csv(out.result);
  }
  out.seconds = now_s() - start;
  return out;
}

mp::MatrixProfileResult cpu_reference_profile(
    const TimeSeries& reference, const TimeSeries& query,
    const mp::MatrixProfileConfig& config) {
  const std::size_t m = config.window;
  const auto tiles = mp::compute_tile_list(reference.segment_count(m),
                                           query.segment_count(m),
                                           config.tiles);
  std::vector<mp::TileResult> results(tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const mp::Tile& tile = tiles[t];
    mp::CpuReferenceConfig cpu;
    cpu.window = m;
    cpu.exclusion = config.exclusion;
    cpu.r_offset = std::int64_t(tile.r_begin);
    cpu.q_offset = std::int64_t(tile.q_begin);
    const auto r = mp::compute_matrix_profile_cpu(
        reference.slice(tile.r_begin, tile.r_count + m - 1),
        query.slice(tile.q_begin, tile.q_count + m - 1), cpu);
    results[t].profile = r.profile;
    results[t].index.resize(r.index.size());
    for (std::size_t e = 0; e < r.index.size(); ++e) {
      // Tile-local reference rows become global segment indices.
      results[t].index[e] =
          r.index[e] < 0 ? -1 : r.index[e] + std::int64_t(tile.r_begin);
    }
  }
  mp::MatrixProfileResult out;
  mp::merge_tile_results(tiles, results, query.segment_count(m),
                         reference.dims(), out);
  return out;
}

double mean_abs_error(const std::vector<double>& a,
                      const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double sum = 0.0;
  for (std::size_t e = 0; e < a.size(); ++e) sum += std::fabs(a[e] - b[e]);
  return sum / double(a.size());
}

namespace {

/// The tile's precalculation kernel plus its GEMM-seeded first QT row and
/// column, as the tile engine runs them, on standalone buffers: the
/// engine does the same work again inside its own tile call, so this
/// measures the layer without reaching into the engine.
template <typename Traits>
void precalc_tile(gpusim::Device& device,
                  const typename mp::StagingCache::View<Traits>& view,
                  const mp::Tile& tile, std::size_t m, std::size_t d) {
  using ST = typename Traits::Storage;
  const std::size_t nr = tile.r_count, nq = tile.q_count;
  const std::size_t len_r = nr + m - 1, len_q = nq + m - 1;
  std::vector<ST> r(len_r * d), q(len_q * d);
  for (std::size_t k = 0; k < d; ++k) {
    std::memcpy(r.data() + k * len_r,
                view.reference + k * view.reference_len + tile.r_begin,
                len_r * sizeof(ST));
    std::memcpy(q.data() + k * len_q,
                view.query + k * view.query_len + tile.q_begin,
                len_q * sizeof(ST));
  }
  std::vector<ST> mu_r(nr * d), inv_r(nr * d), df_r(nr * d), dg_r(nr * d);
  std::vector<ST> mu_q(nq * d), inv_q(nq * d), df_q(nq * d), dg_q(nq * d);
  std::vector<ST> qt_row(nq * d), qt_col(nr * d);
  device.pool().parallel_for(2 * d, [&](std::size_t begin, std::size_t end) {
    for (std::size_t item = begin; item < end; ++item) {
      if (item < d) {
        const std::size_t k = item;
        mp::precalc_dimension<Traits>(r.data() + k * len_r, m, nr,
                                      mu_r.data() + k * nr,
                                      inv_r.data() + k * nr,
                                      df_r.data() + k * nr,
                                      dg_r.data() + k * nr);
      } else {
        const std::size_t k = item - d;
        mp::precalc_dimension<Traits>(q.data() + k * len_q, m, nq,
                                      mu_q.data() + k * nq,
                                      inv_q.data() + k * nq,
                                      df_q.data() + k * nq,
                                      dg_q.data() + k * nq);
      }
    }
  });
  device.pool().parallel_for(d, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      mp::gemm_sliding_dots<Traits>(r.data() + k * len_r, mu_r[k * nr],
                                    q.data() + k * len_q,
                                    mu_q.data() + k * nq, m, 0, nq,
                                    /*slide_first=*/false,
                                    qt_row.data() + k * nq);
      mp::gemm_sliding_dots<Traits>(q.data() + k * len_q, mu_q[k * nq],
                                    r.data() + k * len_r,
                                    mu_r.data() + k * nr, m, 0, nr,
                                    /*slide_first=*/true,
                                    qt_col.data() + k * nr);
    }
  });
}

template <typename Traits>
std::string replay_impl(const CliJob& job, Spans& spans,
                        const std::string& id, ReplayTally& tally) {
  const double job_start = now_s();
  double accounted = 0.0;
  std::string csv;
  {
    ScopedSpan job_span(&spans, "replay.job", id);
    const int parent = job_span.id();
    // Each layer span's duration is added to `accounted` as it closes.
    struct Layer {
      Spans& spans;
      int span;
      double& sum;
      double& accounted;
      ~Layer() {
        spans.close(span);
        const double s = spans.spans()[std::size_t(span)].seconds();
        sum += s;
        accounted += s;
      }
    };
    const auto layer = [&](const char* name, double& sum) {
      return Layer{spans, spans.open(name, id, parent), sum, accounted};
    };
    double system_s = 0.0;

    TimeSeries reference, query;
    {
      auto l = layer("tsdata.read_csv", tally.read_csv_s);
      reference = mpsim::read_csv(job.reference_csv);
    }
    tally.read_csv_bytes += double(std::filesystem::file_size(job.reference_csv));
    ++tally.read_csv_calls;
    if (job.query_csv.empty()) {
      query = reference;
    } else {
      {
        auto l = layer("tsdata.read_csv", tally.read_csv_s);
        query = mpsim::read_csv(job.query_csv);
      }
      tally.read_csv_bytes += double(std::filesystem::file_size(job.query_csv));
      ++tally.read_csv_calls;
    }

    const mp::MatrixProfileConfig& config = job.config;
    const std::size_t m = config.window;
    const std::size_t d = reference.dims();
    const std::size_t n_q = query.segment_count(m);
    // One node's fleet, sized as the coordinator sizes it (the jobs set
    // `workers` explicitly, so no hardware default is involved).
    const std::size_t workers = std::max<std::size_t>(
        1, config.workers / std::size_t(std::max(1, job.elastic.nodes)));
    std::optional<gpusim::System> system;
    {
      auto l = layer("gpusim.system", system_s);
      system.emplace(gpusim::spec_by_name(config.machine), config.devices,
                     workers);
    }

    mp::StagingCache staging(reference, query);
    typename mp::StagingCache::View<Traits> view;
    {
      auto l = layer("mp.staging", tally.staging_s);
      view = staging.get<Traits>();
    }

    auto tiles = mp::compute_tile_list(reference.segment_count(m), n_q,
                                       config.tiles);
    mp::assign_tiles_round_robin(tiles, config.devices);
    std::vector<mp::TileResult> results(tiles.size());
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const mp::Tile& tile = tiles[t];
      gpusim::Device& device = system->device(tile.device);
      double precalc = 0.0, whole = 0.0;
      {
        auto l = layer("mp.precalc", precalc);
        precalc_tile<Traits>(device, view, tile, m, d);
      }
      {
        auto l = layer("mp.tile", whole);
        mp::SingleTileEngine<Traits>::enqueue(
            device, nullptr, reference, query, m, tile, config.exclusion,
            results[t], &staging, config.row_path, config.prefilter);
      }
      tally.precalc_s += precalc;
      tally.tile_s += whole;
      tally.tile_cells += double(tile.r_count) * double(tile.q_count) *
                          double(d);
      ++tally.tiles;
    }

    mp::MatrixProfileResult merged;
    {
      auto l = layer("mp.tile_merge", tally.merge_s);
      mpsim::ThreadPool merge_pool;
      mp::merge_tile_results(tiles, results, n_q, d, merged, &merge_pool);
    }
    {
      auto l = layer("serve.render", tally.render_s);
      csv = mpsim::serve::profile_to_csv(merged);
    }
    tally.render_bytes += double(csv.size());
    {
      auto l = layer("gpusim.system", system_s);
      system.reset();
    }
  }
  tally.wall_s += now_s() - job_start;
  tally.accounted_s += accounted;
  return csv;
}

}  // namespace

std::string replay_job(const CliJob& job, Spans& spans,
                       const std::string& id, ReplayTally& tally) {
  return mpsim::dispatch_precision(
      job.config.mode, [&]<typename Traits>() -> std::string {
        return replay_impl<Traits>(job, spans, id, tally);
      });
}

}  // namespace perfbench
