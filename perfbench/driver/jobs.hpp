// One-shot jobs along the mpsim_cli path, and their traced replay through
// the public layer functions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "mp/options.hpp"
#include "report.hpp"
#include "tsdata/time_series.hpp"

namespace perfbench {

/// A job as mpsim_cli runs it: CSV inputs, a config, a node count.
struct CliJob {
  std::string reference_csv;
  std::string query_csv;  ///< empty = self-join of the reference
  mpsim::mp::MatrixProfileConfig config;
  mpsim::cluster::ElasticClusterConfig elastic;
};

struct CliJobResult {
  std::string csv;                        ///< the rendered profile
  mpsim::mp::MatrixProfileResult result;  ///< as computed
  double seconds = 0.0;                   ///< parse to rendered CSV
};

/// Distance-matrix cells of a job: n_r * n_q * d.
double job_cells(const mpsim::TimeSeries& reference,
                 const mpsim::TimeSeries& query, std::size_t window);

/// read_csv -> compute_matrix_profile_elastic -> profile_to_csv, the
/// mpsim_cli path, paying its own staging and System set-up.  With
/// `spans`, each stage is a child span of one `job` span.
CliJobResult run_cli_job(const CliJob& job, Spans* spans = nullptr,
                         const std::string& id = "");

/// The FP64 oracle of a job: the CPU reference run tile by tile on the
/// job's tile grid (as the scheduler's CPU fallback runs a tile) and
/// min-merged.  An FP64 job must equal it bit for bit; a single tile is
/// the plain compute_matrix_profile_cpu.
mpsim::mp::MatrixProfileResult cpu_reference_profile(
    const mpsim::TimeSeries& reference, const mpsim::TimeSeries& query,
    const mpsim::mp::MatrixProfileConfig& config);

/// Mean |a - b| over all entries (the accuracy metric against FP64).
double mean_abs_error(const std::vector<double>& a,
                      const std::vector<double>& b);

/// Busy time of the layers a replay walks through.
struct ReplayTally {
  double read_csv_s = 0.0;
  double read_csv_bytes = 0.0;
  std::size_t read_csv_calls = 0;
  double staging_s = 0.0;      ///< StagingCache::get (the conversion)
  double precalc_s = 0.0;      ///< summed over tiles
  double tile_s = 0.0;         ///< summed over tiles
  double tile_cells = 0.0;     ///< summed over tiles
  std::size_t tiles = 0;
  double merge_s = 0.0;
  double render_s = 0.0;
  double render_bytes = 0.0;
  double wall_s = 0.0;         ///< the replay job spans
  double accounted_s = 0.0;    ///< the layer spans directly under them
};

/// Replays `job` layer by layer, each layer its own span under a
/// `replay.job` span: read_csv -> StagingCache::get -> per tile the
/// precalc and GEMM seeds, then a synchronous SingleTileEngine::enqueue ->
/// merge_tile_results -> profile_to_csv.  Tiles run one after another on
/// the fleet of one node.  Returns the rendered CSV, which must equal the
/// end-to-end job's bytes.
std::string replay_job(const CliJob& job, Spans& spans,
                       const std::string& id, ReplayTally& tally);

}  // namespace perfbench
