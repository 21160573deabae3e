// Per-layer metrics shared by the workloads: registry-derived scheduler
// figures, replay tallies, and zeros for bypassed layers.
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

double RegistryView::counter(const std::string& name) const {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return double(v);
  }
  return 0.0;
}

double RegistryView::histogram_sum(const std::string& name) const {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0.0;
}

double RegistryView::histogram_mean(const std::string& name) const {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return h.mean();
  }
  return 0.0;
}

void report_registry_layers(Report& report, const RegistryView& registry,
                            double compute_s, double tiles, double rows) {
  const auto& r = registry;
  report.add("mp.staging.hit_ratio", "ratio",
             ratio(r.counter("staging.hits"),
                     r.counter("staging.hits") + r.counter("staging.misses")));
  report.add("mp.sched.parallelism", "ratio",
             ratio(r.histogram_sum("resilient.tile_seconds"), compute_s));
  report.add("mp.sched.attempts_per_tile", "count",
             ratio(r.counter("resilient.attempts"),
                     r.counter("resilient.tiles_completed")));
  report.add("thread_pool.dispatches_per_row", "count",
             ratio(r.counter("thread_pool.parallel_for.dispatches"), rows));
  report.add("thread_pool.caller_chunk_share", "%",
             r.histogram_mean("thread_pool.parallel_for.caller_chunk_share"));
  report.add("resilient.slice_commits", "count",
             r.counter("resilient.slice_commits"));
  report.add("cluster.dispatches_per_tile", "count",
             ratio(r.counter("coordinator.tiles_dispatched"), tiles));
  report.add("coordinator.steals", "count", r.counter("coordinator.steals"));
  report.add("cluster.commit_conflict_ratio", "ratio",
             ratio(r.counter("node.commit_conflicts"),
                     r.counter("node.commits")));
}

void report_replay_layers(
    Report& report,
    const std::vector<std::pair<std::string, ReplayTally>>& per_mode) {
  ReplayTally all;
  for (const auto& [suffix, t] : per_mode) {
    report.add("mp.staging.convert_s." + suffix, "s", t.staging_s);
    report.add("mp.row.cells_per_s." + suffix, "1/s",
               ratio(t.tile_cells, t.tile_s - t.precalc_s));
    all.read_csv_s += t.read_csv_s;
    all.read_csv_bytes += t.read_csv_bytes;
    all.read_csv_calls += t.read_csv_calls;
    all.precalc_s += t.precalc_s;
    all.tile_s += t.tile_s;
    all.tiles += t.tiles;
    all.merge_s += t.merge_s;
    all.render_s += t.render_s;
    all.render_bytes += t.render_bytes;
    all.wall_s += t.wall_s;
    all.accounted_s += t.accounted_s;
  }
  const double jobs = double(per_mode.size());
  const double tiles = double(all.tiles);
  report.add("tsdata.read_csv_s", "s",
             ratio(all.read_csv_s, double(all.read_csv_calls)),
             all.read_csv_calls);
  report.add("tsdata.read_csv_mb_per_s", "MB/s",
             ratio(all.read_csv_bytes / 1e6, all.read_csv_s),
             all.read_csv_calls);
  report.add("mp.precalc_s", "s", ratio(all.precalc_s, tiles),
             all.tiles);
  report.add("mp.tile_s", "s", ratio(all.tile_s, tiles),
             all.tiles);
  report.add("mp.merge_s", "s", ratio(all.merge_s, jobs),
             per_mode.size());
  report.add("serve.render_ms", "ms",
             ratio(all.render_s * 1e3, jobs), per_mode.size());
  report.add("serve.render_mb_per_s", "MB/s",
             ratio(all.render_bytes / 1e6, all.render_s),
             per_mode.size());
  const double share = ratio(all.accounted_s, all.wall_s);
  report.add("replay.accounted_share", "ratio", share, per_mode.size());
  char what[128];
  std::snprintf(what, sizeof(what),
                "replay layers account for %.4f of the replay wall time "
                "(tolerance %.2f)", share, kReplayTolerance);
  report.op(share >= 1.0 - kReplayTolerance && share <= 1.0, what);
}

void note_tail_latency(Report& report, const std::vector<double>& ms) {
  for (const int q : {99, 95, 90, 75}) {
    const Percentile p = percentile(ms, q / 100.0, 10);
    if (!p.valid) continue;
    report.note("latency_p" + std::to_string(q) + "_ms (ms, " +
                    std::to_string(p.samples) + " samples, " +
                    std::to_string(p.beyond) + " beyond)",
                std::to_string(p.value));
    return;
  }
  report.note("latency tail",
              std::to_string(ms.size()) +
                  " samples: no percentile above p50 has 10 beyond it");
}

void report_bypassed_layers(Report& report) {
  for (const MetricSpec& spec : kPerLayerMetrics) {
    if (!report.has(spec.name)) report.add(spec.name, spec.unit, 0.0, 0);
  }
}

}  // namespace perfbench
