// The benchmark's workloads.  Each generates its inputs from the seed,
// times its user path for `seconds`, checks every output, and fills the
// report: end-to-end metrics on a timed run, per-layer metrics on a
// traced one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "jobs.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch inputs, journals and sockets
  std::string trace_path;  ///< where a traced run writes its spans
};

void run_batch_modes(const RunOptions& options, Report& report);
void run_wide_elastic(const RunOptions& options, Report& report);
void run_serve_mixed(const RunOptions& options, Report& report);

/// Prints, next to the result, the highest of p99/p95/p90/p75 that has at
/// least 10 samples beyond it, with its sample count (or says that no tail
/// percentile has enough samples).
void note_tail_latency(Report& report, const std::vector<double>& ms);

/// Reports 0 for every per-layer metric the workload did not reach (its
/// path bypasses that layer).
void report_bypassed_layers(Report& report);

/// Whether a mode's error against FP64 enters the gated err_mean_abs.
/// Plain FP16 does not: its error comes from a few catastrophic
/// cancellations whose count swings with the data (0.76..1.22 over six
/// seeds of batch_modes), which would drown every other mode's signal.
/// It is still reported on its own line.
inline bool gates_error(const std::string& mode) { return mode != "FP16"; }

/// Lookups into a metrics snapshot (0 when the instrument is absent).
struct RegistryView {
  mpsim::MetricsSnapshot snapshot;

  double counter(const std::string& name) const;
  double histogram_sum(const std::string& name) const;
  double histogram_mean(const std::string& name) const;
};

/// Reports the scheduler, thread-pool, staging, journal-commit and
/// coordinator metrics of traced one-shot jobs from the registry.
/// `compute_s` is the wall time of the traced compute calls, `tiles` and
/// `rows` the tiles and tile rows they ran.
void report_registry_layers(Report& report, const RegistryView& registry,
                            double compute_s, double tiles, double rows);

/// Reports the per-layer metrics of replayed jobs, one tally per mode
/// (keyed by the mode's metric suffix), plus the replay's accounting
/// check: the layer spans must cover the replay wall time within
/// kReplayTolerance.
void report_replay_layers(
    Report& report,
    const std::vector<std::pair<std::string, ReplayTally>>& per_mode);

/// Share of the replay wall time the layer spans may leave unaccounted.
inline constexpr double kReplayTolerance = 0.05;

}  // namespace perfbench
