// wide_elastic: a wide (d = 128) random-walk self-join in Mixed precision
// across two simulated nodes, journalled with row slices, then resumed
// from the finished journal.
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "mp/checkpoint.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/tile_plan.hpp"
#include "stats.hpp"
#include "tsdata/io.hpp"
#include "tsdata/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace mp = mpsim::mp;

constexpr std::size_t kSegments = 512;
constexpr std::size_t kDims = 128;  // > kMaxFusedRowDims: cooperative rows
constexpr std::size_t kWindow = 64;
constexpr int kTiles = 8;
constexpr int kNodes = 2;
constexpr int kDevicesPerNode = 2;
constexpr std::size_t kWorkers = 4;  // split evenly across the nodes
constexpr int kSliceRows = 16;
constexpr std::size_t kWarmSegments = 128;
constexpr int kSetups = 3;

CliJob make_job(const std::string& csv, const std::string& journal,
                bool resume) {
  CliJob job;
  job.reference_csv = csv;
  job.config.window = kWindow;
  job.config.mode = mpsim::PrecisionMode::Mixed;
  job.config.exclusion = std::int64_t(kWindow / 2);  // mpsim_cli self-join
  job.config.tiles = kTiles;
  job.config.devices = kDevicesPerNode;
  job.config.workers = kWorkers;
  if (resume) {
    job.config.checkpoint.resume_path = journal;
  } else {
    job.config.checkpoint.write_path = journal;
    job.config.checkpoint.slice_rows = kSliceRows;
  }
  job.elastic.nodes = kNodes;
  return job;
}

/// The base journal and every per-node side journal of a run.
std::vector<std::string> journal_files(const std::string& journal) {
  std::vector<std::string> files;
  if (fs::exists(journal)) files.push_back(journal);
  for (int k = 0; k < kNodes; ++k) {
    const std::string side = journal + ".node" + std::to_string(k);
    if (fs::exists(side)) files.push_back(side);
  }
  return files;
}

/// A journalled run must start from nothing, or it would resume.
void remove_journals(const std::string& journal) {
  for (const std::string& base :
       {journal, journal + ".node0", journal + ".node1"}) {
    fs::remove(base);
    fs::remove(base + ".tmp");
  }
}

}  // namespace

void run_wide_elastic(const RunOptions& options, Report& report) {
  const fs::path dir = options.work_dir;
  const mpsim::TimeSeries series = mpsim::make_random_walk_series(
      kSegments + kWindow - 1, kDims, 1.0, options.seed);
  const std::string csv = dir / "walk.csv";
  const std::string warm_csv = dir / "warm_walk.csv";
  mpsim::write_csv(csv, series);
  mpsim::write_csv(warm_csv, series.slice(0, kWarmSegments + kWindow - 1));
  const std::string journal = dir / "run.ckpt";
  const std::string warm_journal = dir / "warm.ckpt";
  const CliJob run_job = make_job(csv, journal, false);
  const CliJob resume_job = make_job(csv, journal, true);
  const double cells = job_cells(series, series, kWindow);

  // ---- Set-up: process warm-up, a small journalled run and its resume.
  std::vector<double> setups;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    remove_journals(warm_journal);
    const double start = now_s();
    run_cli_job(make_job(warm_csv, warm_journal, false));
    run_cli_job(make_job(warm_csv, warm_journal, true));
    setups.push_back(now_s() - start);
  }

  // ---- One op: a journalled run, then a resume from its journal; the
  // resumed bytes must equal the run's, and every run the first one's.
  CliJobResult first;
  std::vector<double> run_seconds, resume_seconds;
  int ops = 0;
  const auto op = [&](Spans* spans) {
    const std::string id = std::to_string(ops);
    remove_journals(journal);
    CliJobResult run, resumed;
    try {
      run = run_cli_job(run_job, spans, "run-" + id);
      resumed = run_cli_job(resume_job, spans, "resume-" + id);
    } catch (const std::exception& e) {
      report.op(false, "op " + id + ": " + e.what());
      ++ops;
      return 0.0;
    }
    report.op(true);
    report.op(resumed.csv == run.csv,
              "resume " + id + " differs from its journalled run");
    report.op(resumed.result.health.resumed_tiles == kTiles,
              "resume " + id + " did not restore every tile");
    run_seconds.push_back(run.seconds);
    resume_seconds.push_back(resumed.seconds);
    if (ops == 0) {
      first = std::move(run);
    } else {
      report.op(run.csv == first.csv,
                "run " + id + " output differs from the first run");
    }
    ++ops;
    return run_seconds.back();
  };

  if (!options.trace) {
    const double end = now_s() + options.seconds;
    do {
      op(nullptr);
    } while (now_s() < end);
    report.add("peak_rss_mb", "MB", peak_rss_mb());
    report.add("setup_s", "s", median(setups), setups.size());
  } else {
    const double untraced = op(nullptr);
    auto& registry = mpsim::MetricsRegistry::global();
    registry.reset();
    registry.set_enabled(true);
    Spans spans;
    const double traced = op(&spans);
    registry.set_enabled(false);
    RegistryView view{registry.snapshot()};
    report.add("trace_overhead_ratio", "ratio", traced / untraced);

    // Journal layer, timed from outside on the run's own journals: each
    // file is read back and rewritten to a scratch path.  The traced op
    // left them in place; the resume only read them.
    double bytes = 0.0, read_s = 0.0, write_s = 0.0;
    for (const std::string& file : journal_files(journal)) {
      bytes += double(fs::file_size(file));
      mp::CheckpointData data;
      {
        ScopedSpan span(&spans, "mp.checkpoint.read", file);
        const double start = now_s();
        data = mp::read_checkpoint(file);
        read_s += now_s() - start;
      }
      {
        ScopedSpan span(&spans, "mp.checkpoint.write", file);
        const double start = now_s();
        mp::write_checkpoint((dir / "rewrite.ckpt").string(), data);
        write_s += now_s() - start;
      }
    }
    report.add("mp.journal.bytes", "B", bytes);
    report.add("mp.journal.read_s", "s", read_s);
    report.add("mp.journal.write_s", "s", write_s);

    // The registry saw the journalled run and its resume; the resume
    // restores every tile without dispatching it.
    const auto tiles = mp::compute_tile_list(
        series.segment_count(kWindow), series.segment_count(kWindow),
        kTiles);
    double rows = 0.0;
    for (const auto& tile : tiles) rows += double(tile.r_count);
    report_registry_layers(
        report, view, spans.total("cluster.compute_matrix_profile_elastic"),
        double(tiles.size()), rows);

    ReplayTally tally;
    const std::string replayed = replay_job(run_job, spans, "replay", tally);
    report.op(replayed == first.csv,
              "replay bytes differ from the end-to-end run");
    report_replay_layers(report, {{"mixed", tally}});
    spans.write_chrome_json(options.trace_path);
  }

  std::vector<double> resume_ms;
  for (const double s : resume_seconds) resume_ms.push_back(s * 1e3);
  report.note("resume_s (s, " + std::to_string(resume_ms.size()) + " runs)",
              std::to_string(median(resume_ms) / 1e3));
  if (options.trace) return;

  // ---- Accuracy against the FP64 CPU reference (outside every timing).
  mp::CpuReferenceConfig cpu;
  cpu.window = kWindow;
  cpu.exclusion = run_job.config.exclusion;
  const auto fp64 = mp::compute_matrix_profile_cpu(series, series, cpu);

  std::vector<double> run_ms;
  double seconds_sum = 0.0;
  for (const double s : run_seconds) {
    run_ms.push_back(s * 1e3);
    seconds_sum += s;
  }
  report.add("cells_per_s", "1/s",
             cells * double(run_seconds.size()) / seconds_sum,
             run_seconds.size());
  const auto p50 = percentile(run_ms, 0.50, 0);
  report.add("latency_p50_ms", "ms", p50.value, p50.samples);
  note_tail_latency(report, run_ms);
  report.add("err_mean_abs", "dist",
             mean_abs_error(first.result.profile, fp64.profile));
}

}  // namespace perfbench
