// batch_modes: one-shot AB-joins along the mpsim_cli path in all five
// precision modes on the paper's §V-A synthetic dataset.
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "mp/tile_plan.hpp"
#include "stats.hpp"
#include "tsdata/io.hpp"
#include "tsdata/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mp = mpsim::mp;

constexpr std::size_t kSegments = 8192;
constexpr std::size_t kDims = 4;
constexpr std::size_t kWindow = 64;
constexpr int kTiles = 4;
constexpr int kDevices = 4;
constexpr std::size_t kWorkers = 4;  // devices x nodes <= cores
constexpr std::size_t kWarmSegments = 2048;
constexpr int kSetups = 5;

CliJob make_job(const std::string& reference, const std::string& query,
                const char* mode) {
  CliJob job;
  job.reference_csv = reference;
  job.query_csv = query;
  job.config.window = kWindow;
  job.config.mode = mpsim::parse_precision_mode(mode);
  job.config.tiles = kTiles;
  job.config.devices = kDevices;
  job.config.workers = kWorkers;
  job.elastic.nodes = 1;  // routes straight to the single-node scheduler
  return job;
}

}  // namespace

void run_batch_modes(const RunOptions& options, Report& report) {
  const std::filesystem::path dir = options.work_dir;
  mpsim::SyntheticSpec spec;
  spec.segments = kSegments;
  spec.dims = kDims;
  spec.window = kWindow;
  spec.seed = options.seed;
  const auto data = mpsim::make_synthetic_dataset(spec);
  const std::string ref_csv = dir / "reference.csv";
  const std::string query_csv = dir / "query.csv";
  const std::string warm_ref_csv = dir / "warm_reference.csv";
  const std::string warm_query_csv = dir / "warm_query.csv";
  mpsim::write_csv(ref_csv, data.reference);
  mpsim::write_csv(query_csv, data.query);
  mpsim::write_csv(warm_ref_csv,
                   data.reference.slice(0, kWarmSegments + kWindow - 1));
  mpsim::write_csv(warm_query_csv,
                   data.query.slice(0, kWarmSegments + kWindow - 1));

  std::vector<CliJob> jobs, warm_jobs;
  for (const ModeName& mode : kModeNames) {
    jobs.push_back(make_job(ref_csv, query_csv, mode.mode));
    warm_jobs.push_back(make_job(warm_ref_csv, warm_query_csv, mode.mode));
  }
  const double cells = job_cells(data.reference, data.query, kWindow);

  // ---- Set-up: process warm-up, one small job per mode, repeated. ----
  std::vector<double> setups;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    const double start = now_s();
    for (const CliJob& job : warm_jobs) run_cli_job(job);
    setups.push_back(now_s() - start);
  }

  // ---- One round: every mode once, each job checked against the first
  // round's bytes (the program is deterministic for fixed inputs). ----
  std::vector<CliJobResult> first(jobs.size());
  std::vector<std::vector<double>> job_seconds(jobs.size());
  int rounds = 0;
  const auto round = [&](Spans* spans) {
    double wall = 0.0;
    for (std::size_t m = 0; m < jobs.size(); ++m) {
      const std::string id = std::string(kModeNames[m].suffix) + "-" +
                             std::to_string(rounds);
      CliJobResult r;
      try {
        r = run_cli_job(jobs[m], spans, id);
      } catch (const std::exception& e) {
        report.op(false, "job " + id + ": " + e.what());
        continue;
      }
      report.op(true);
      wall += r.seconds;
      job_seconds[m].push_back(r.seconds);
      if (rounds == 0) {
        first[m] = std::move(r);
      } else {
        report.op(r.csv == first[m].csv,
                  "job " + id + " output differs from the first round");
      }
    }
    ++rounds;
    return wall;
  };

  if (!options.trace) {
    const double end = now_s() + options.seconds;
    do {
      round(nullptr);
    } while (now_s() < end);
    report.add("peak_rss_mb", "MB", peak_rss_mb());
    report.add("setup_s", "s", median(setups), setups.size());
  } else {
    // Untraced round, traced round (registry on, spans kept), then the
    // layer-by-layer replay of each job.
    const double untraced = round(nullptr);
    auto& registry = mpsim::MetricsRegistry::global();
    registry.reset();
    registry.set_enabled(true);
    Spans spans;
    const double traced = round(&spans);
    registry.set_enabled(false);
    RegistryView view{registry.snapshot()};
    report.add("trace_overhead_ratio", "ratio", traced / untraced);

    const auto tiles = mp::compute_tile_list(
        data.reference.segment_count(kWindow),
        data.query.segment_count(kWindow), kTiles);
    double rows = 0.0;
    for (const auto& tile : tiles) rows += double(tile.r_count);
    const double n_jobs = double(jobs.size());
    report_registry_layers(
        report, view, spans.total("cluster.compute_matrix_profile_elastic"),
        n_jobs * double(tiles.size()), n_jobs * rows);

    std::vector<std::pair<std::string, ReplayTally>> tallies;
    for (std::size_t m = 0; m < jobs.size(); ++m) {
      ReplayTally tally;
      const std::string id = std::string("replay-") + kModeNames[m].suffix;
      const std::string csv = replay_job(jobs[m], spans, id, tally);
      report.op(csv == first[m].csv,
                id + " bytes differ from the end-to-end job");
      tallies.emplace_back(kModeNames[m].suffix, tally);
    }
    report_replay_layers(report, tallies);
    spans.write_chrome_json(options.trace_path);
  }

  // ---- Output checks (outside every timing). ----
  const auto oracle =
      cpu_reference_profile(data.reference, data.query, jobs[0].config);
  const auto& fp64 = first[0].result;
  report.op(fp64.profile == oracle.profile && fp64.index == oracle.index,
            "FP64 profile differs from the tile-wise CPU reference");

  double cells_sum = 0.0, seconds_sum = 0.0;
  std::vector<double> errors;
  std::vector<double> all_ms;
  for (std::size_t m = 0; m < jobs.size(); ++m) {
    const std::string suffix = kModeNames[m].suffix;
    double mode_seconds = 0.0;
    for (const double s : job_seconds[m]) {
      mode_seconds += s;
      all_ms.push_back(s * 1e3);
    }
    cells_sum += cells * double(job_seconds[m].size());
    seconds_sum += mode_seconds;
    report.note("cells_per_s." + suffix + " (1/s, " +
                    std::to_string(job_seconds[m].size()) + " jobs)",
                std::to_string(cells * double(job_seconds[m].size()) /
                               mode_seconds));
    if (m == 0) continue;
    const double err = mean_abs_error(first[m].result.profile, fp64.profile);
    if (gates_error(kModeNames[m].mode)) errors.push_back(err);
    report.note("err_mean_abs." + suffix + " (dist)", std::to_string(err));
  }
  if (options.trace) return;
  report.add("cells_per_s", "1/s", cells_sum / seconds_sum, all_ms.size());
  const auto p50 = percentile(all_ms, 0.50, 0);
  report.add("latency_p50_ms", "ms", p50.value, p50.samples);
  note_tail_latency(report, all_ms);
  report.add("err_mean_abs", "dist", geometric_mean(errors), errors.size());
}

}  // namespace perfbench
