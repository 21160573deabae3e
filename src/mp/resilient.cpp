#include "mp/resilient.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "common/stopwatch.hpp"
#include "gpusim/cancel.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/stream.hpp"
#include "mp/checkpoint.hpp"
#include "mp/cpu_reference.hpp"
#include "mp/model.hpp"
#include "mp/single_tile.hpp"
#include "mp/staging.hpp"
#include "mp/tile_merge.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {

namespace {

/// Splits a tile ledger total into kernel vs copy seconds (the copy share
/// can overlap compute when multiple streams are configured).
struct TileTimes {
  double kernels = 0.0;
  double copies = 0.0;
};

TileTimes tile_times(const gpusim::KernelLedger& ledger) {
  TileTimes t;
  for (const auto& [name, stats] : ledger.all()) {
    if (name.rfind("memcpy", 0) == 0) {
      t.copies += stats.modeled_seconds;
    } else {
      t.kernels += stats.modeled_seconds;
    }
  }
  return t;
}

/// A unit of schedulable work: one tile at its current precision rung.
struct TileJob {
  std::size_t index = 0;       ///< into the tile/result arrays
  PrecisionMode mode = PrecisionMode::FP64;
  int retries_here = 0;        ///< attempts burned on the current device
  bool speculative = false;    ///< watchdog-launched backup attempt
  std::set<int> exhausted;     ///< devices whose retry budget this tile spent
};

/// Counters + histograms of the resilient scheduler, registered once in
/// the global registry (per-call cost: relaxed atomics, nothing when the
/// registry is disabled).
struct SchedulerMetrics {
  Counter& tiles_completed;
  Counter& attempts;
  Counter& retries;
  Counter& reassigned;
  Counter& blacklists;
  Counter& cpu_fallback;
  Counter& escalations;
  Counter& checkpoint_writes;
  Counter& tiles_resumed;
  Counter& watchdog_fires;
  Counter& speculative_wins;
  Counter& speculative_losses;
  Counter& tile_splits;
  Counter& resume_fallback;
  Counter& slice_commits;
  Counter& slices_partial;
  Counter& slices_discarded;
  Histogram& tile_seconds;

  static SchedulerMetrics& get() {
    auto& reg = MetricsRegistry::global();
    static SchedulerMetrics m{reg.counter("resilient.tiles_completed"),
                              reg.counter("resilient.attempts"),
                              reg.counter("resilient.retries"),
                              reg.counter("resilient.reassigned_tiles"),
                              reg.counter("resilient.blacklist_events"),
                              reg.counter("resilient.cpu_fallback_tiles"),
                              reg.counter("resilient.escalations"),
                              reg.counter("resilient.checkpoint_writes"),
                              reg.counter("resilient.tiles_resumed"),
                              reg.counter("resilient.watchdog_fires"),
                              reg.counter("resilient.speculative_wins"),
                              reg.counter("resilient.speculative_losses"),
                              reg.counter("resilient.tile_splits"),
                              reg.counter("resilient.resume_fallback"),
                              reg.counter("resilient.slice_commits"),
                              reg.counter("resilient.slices_partial"),
                              reg.counter("resilient.slices_discarded"),
                              reg.histogram("resilient.tile_seconds")};
    return m;
  }
};

/// Node-level instruments of a multi-node run (all zero in single-node
/// runs, which never touch them); the names are part of the metrics
/// schema that check_perf.sh and the benchmark read.
struct CoordinatorMetrics {
  Counter& tiles_dispatched;   ///< jobs a node took up (backups excluded)
  Counter& steals;             ///< cross-domain steals of queued jobs
  Counter& duplicates;         ///< straggler backups placed cross-domain
  Counter& node_crashes;       ///< domains lost to NodeFailedError
  Counter& cpu_fallback_tiles; ///< tiles finished on the CPU fallback
  Counter& node_commits;       ///< winning commits
  Counter& node_commit_conflicts;  ///< commits lost to another domain
  Gauge& nodes;                ///< domain count of the current run

  static CoordinatorMetrics& get() {
    auto& reg = MetricsRegistry::global();
    static CoordinatorMetrics m{reg.counter("coordinator.tiles_dispatched"),
                                reg.counter("coordinator.steals"),
                                reg.counter("coordinator.duplicates"),
                                reg.counter("coordinator.node_crashes"),
                                reg.counter("coordinator.cpu_fallback_tiles"),
                                reg.counter("node.commits"),
                                reg.counter("node.commit_conflicts"),
                                reg.gauge("coordinator.nodes")};
    return m;
  }
};

/// One in-flight attempt, visible to the watchdog monitor.  The token is
/// owned by the executing worker's stack frame; the record is erased
/// before that frame unwinds, so the pointer cannot dangle.
struct AttemptRecord {
  std::size_t job_index = 0;
  int tile_id = 0;
  int device = -1;
  PrecisionMode mode = PrecisionMode::FP64;
  double start_seconds = 0.0;    ///< run-clock time the attempt started
  double modeled_seconds = 0.0;  ///< perf-model estimate for the deadline
  gpusim::CancellationToken* token = nullptr;
  bool speculative = false;
  bool fired = false;            ///< watchdog already flagged this attempt
};

/// Shared scheduler state, guarded by one mutex.
struct SchedulerState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::deque<TileJob>> queues;  ///< per-device work queues
  std::vector<TileJob> cpu_jobs;            ///< orphans for the CPU fallback
  std::vector<char> blacklisted;
  std::vector<int> consecutive_failed_tiles;
  std::size_t outstanding = 0;  ///< jobs neither committed nor sent to CPU
  RunHealth health;

  // ---- Durability & liveness layer. ----
  std::vector<char> committed;       ///< per tile: result is final
  std::vector<int> backups_inflight; ///< per tile: queued/running backups
  std::vector<int> watchdog_strikes; ///< per device: deadline overruns
  std::uint64_t next_attempt_id = 0;
  std::map<std::uint64_t, AttemptRecord> inflight;
  double wall_per_modeled = 0.0;  ///< EWMA calibration of the perf model
  bool interrupted = false;       ///< shutdown observed; run is unwinding
  bool stop_monitor = false;
  std::size_t total_commits = 0;
  std::vector<CheckpointSlice> partials;  ///< per tile: best snapshot so far
  std::size_t slice_commits_total = 0;

  // ---- Fault domains (one entry per node). ----
  std::vector<char> domain_down;        ///< node crashed; journal frozen
  std::vector<int> domain_workers;      ///< live workers (lifecycle span)
  std::vector<std::size_t> commits_since_checkpoint;
  std::unique_ptr<std::mutex[]> journal_io;  ///< serialises journal I/O
};

void log_event(SchedulerState& st, RunEvent event) {
  st.health.events.push_back(std::move(event));
}

/// Picks the healthiest destination queue for a requeued job (fewest
/// pending tiles, skipping blacklisted devices and devices the job has
/// already exhausted); pushes to the CPU-fallback list when none remain.
/// Caller holds the lock.
void requeue_locked(SchedulerState& st, TileJob job, int tile_id) {
  if (st.committed[job.index]) return;  // another attempt already won
  if (job.speculative) {
    // A requeued backup becomes an ordinary job; the backup slot frees up
    // so the watchdog may speculate again if the primary stays stuck.
    st.backups_inflight[job.index] -= 1;
    job.speculative = false;
  }
  int target = -1;
  std::size_t best = 0;
  for (int dev = 0; dev < int(st.queues.size()); ++dev) {
    if (st.blacklisted[std::size_t(dev)] != 0) continue;
    if (job.exhausted.count(dev) != 0) continue;
    const std::size_t depth = st.queues[std::size_t(dev)].size();
    if (target < 0 || depth < best) {
      target = dev;
      best = depth;
    }
  }
  job.retries_here = 0;
  st.health.reassigned_tiles += 1;
  SchedulerMetrics::get().reassigned.add();
  if (target < 0) {
    for (const TileJob& queued : st.cpu_jobs) {
      if (queued.index == job.index) return;  // already deferred once
    }
    log_event(st, {RunEvent::Kind::kDeferredToCpu, tile_id, -1, ""});
    st.outstanding -= 1;  // leaves the device scheduler's responsibility
    st.cpu_jobs.push_back(std::move(job));
  } else {
    log_event(st, {RunEvent::Kind::kReassigned, tile_id, target, ""});
    st.queues[std::size_t(target)].push_back(std::move(job));
  }
}

/// Marks `dev` blacklisted and hands its in-hand job elsewhere.  Orphans
/// still queued on `dev` are work-stolen by the healthy workers.  Caller
/// holds the lock.
void blacklist_locked(SchedulerState& st, int dev, bool offline,
                      const std::string& why) {
  st.blacklisted[std::size_t(dev)] = 1;
  st.health.blacklist_events += 1;
  SchedulerMetrics::get().blacklists.add();
  auto& status = st.health.devices[std::size_t(dev)];
  status.blacklisted = true;
  status.offline = offline;
  log_event(st, {RunEvent::Kind::kBlacklisted, -1, dev, why});
}

/// Everything the per-device workers need to execute tiles.
struct RunContext {
  gpusim::System* system = nullptr;
  const TimeSeries* reference = nullptr;
  const TimeSeries* query = nullptr;
  const MatrixProfileConfig* config = nullptr;
  std::vector<gpusim::StreamPool*> pools;
  const std::vector<Tile>* tiles = nullptr;
  std::vector<TileResult>* results = nullptr;
  std::vector<int>* executed_device = nullptr;  ///< -1 = CPU fallback
  std::vector<PrecisionMode>* final_mode = nullptr;
  StagingCache* staging = nullptr;
  const Stopwatch* clock = nullptr;   ///< run clock (watchdog time base)
  std::uint64_t fingerprint = 0;      ///< checkpoint identity of this run
  std::size_t dims = 0;               ///< d (journalled with every slice)
  /// Per-tile restored row-slice prefixes (r_count == 0 = none); attempts
  /// at the prefix's mode resume from its last journalled row.
  const std::vector<CheckpointSlice>* prefixes = nullptr;

  // ---- Fault domains. ----
  FaultDomains domains;
  int domain_devices = 1;   ///< devices per node
  bool multi_node = false;  ///< node-level accounting, spans and journals

  int domain_of(int dev) const { return dev / domain_devices; }
  /// The node id journalled with a slice (-1 = single-node run).
  int journal_node(int dev) const {
    return multi_node && dev >= 0 ? domain_of(dev) : -1;
  }
};

/// Runs one attempt of a tile on `dev` as a single stream task and
/// synchronizes that stream, so any failure is attributed to this tile.
void execute_attempt(const RunContext& ctx, int dev, PrecisionMode mode,
                     const Tile& tile, TileResult& result,
                     const gpusim::CancellationToken* cancel,
                     const SliceProgress* slice) {
  gpusim::Device& device = ctx.system->device(dev);
  gpusim::Stream& stream = ctx.pools[std::size_t(dev)]->next();
  dispatch_precision(mode, [&]<typename Traits>() {
    SingleTileEngine<Traits>::enqueue(device, &stream, *ctx.reference,
                                      *ctx.query, ctx.config->window, tile,
                                      ctx.config->exclusion, result,
                                      ctx.staging, ctx.config->row_path,
                                      ctx.config->prefilter, cancel, slice);
  });
  stream.synchronize();
}

/// Column-wise min/argmin merge of row sub-tiles into their parent tile's
/// result slot.  The sub-tiles cover disjoint reference rows of the same
/// query columns, so entries align 1:1; merge_min_span's rule is
/// associative, so merging sub-tiles here and then tiles at run level is
/// bit-identical to merging the sub-tiles as planner tiles directly.
void merge_sub_tiles(const TileResult& left, const TileResult& right,
                     TileResult& out) {
  const std::size_t entries = left.profile.size();
  out.profile.assign(entries, std::numeric_limits<double>::infinity());
  out.index.assign(entries, -1);
  for (const TileResult* sub : {&left, &right}) {
    merge_min_span(sub->profile.data(), sub->index.data(), out.profile.data(),
                   out.index.data(), entries);
  }
  out.ledger.reset();
  out.ledger.merge_from(left.ledger);
  out.ledger.merge_from(right.ledger);
  out.prefilter = {};
  out.prefilter.merge_from(left.prefilter);
  out.prefilter.merge_from(right.prefilter);
}

/// Executes a tile, degrading under memory pressure: when the device
/// cannot hold the tile's working set, split it along the row axis with
/// the planner's split_range boundaries (first half takes the extra row)
/// and run the halves sequentially, each restarting from its own
/// precalculation.  Recurses until the pieces fit or the split budget is
/// spent (then the DeviceMemoryError propagates like any other fault).
void execute_with_split(const RunContext& ctx, SchedulerState& st, int dev,
                        PrecisionMode mode, const Tile& tile,
                        TileResult& result,
                        const gpusim::CancellationToken* cancel, int depth,
                        const SliceProgress* slice) {
  try {
    execute_attempt(ctx, dev, mode, tile, result, cancel, slice);
    return;
  } catch (const DeviceMemoryError& e) {
    const ResilienceConfig& rc = ctx.config->resilience;
    if (depth >= rc.max_tile_splits || tile.r_count < 2) throw;
    Tile left = tile;
    Tile right = tile;
    left.r_count = tile.r_count - tile.r_count / 2;
    right.r_begin = tile.r_begin + left.r_count;
    right.r_count = tile.r_count - left.r_count;
    {
      std::lock_guard lock(st.mutex);
      st.health.tile_splits += 1;
      SchedulerMetrics::get().tile_splits.add();
      log_event(st, {RunEvent::Kind::kTileSplit, tile.id, dev,
                     "rows [" + std::to_string(tile.r_begin) + ", +" +
                         std::to_string(tile.r_count) + ") split at +" +
                         std::to_string(left.r_count) + ": " + e.what()});
    }
    TileResult left_result, right_result;
    // Sub-tiles restart from their own precalculation and cover the full
    // row ranges: no prefix resume, no snapshot emission (their row state
    // is not a prefix of the whole tile's).
    execute_with_split(ctx, st, dev, mode, left, left_result, cancel,
                       depth + 1, nullptr);
    execute_with_split(ctx, st, dev, mode, right, right_result, cancel,
                       depth + 1, nullptr);
    merge_sub_tiles(left_result, right_result, result);
  }
}

/// The journal writer, parameterised by fault domain.  `domain` < 0
/// writes the whole-run journal to write_path: every committed tile as a
/// complete slice, the best partial row-slice of every in-flight tile and
/// the event history.  Domain k of a multi-node run writes only the
/// tiles its devices committed and the slices they journalled to
/// `<write_path>.node<k>` (restore merges them back); a crashed domain's
/// file is never written again.  With one domain its journal is the
/// whole-run journal.  The copy is taken under the scheduler lock; the
/// file I/O runs outside it, serialised per domain.
void write_journal(const RunContext& ctx, SchedulerState& st, int domain) {
  const std::string& base = ctx.config->checkpoint.write_path;
  if (base.empty()) return;
  if (ctx.domains.nodes == 1) domain = -1;
  const std::string path =
      domain < 0 ? base : base + ".node" + std::to_string(domain);
  std::lock_guard io(st.journal_io[std::size_t(std::max(domain, 0))]);
  CheckpointData data;
  data.fingerprint = ctx.fingerprint;
  data.tile_count = ctx.tiles->size();
  std::size_t complete = 0;
  {
    std::lock_guard lock(st.mutex);
    if (domain >= 0 && st.domain_down[std::size_t(domain)] != 0) return;
    for (std::size_t t = 0; t < ctx.tiles->size(); ++t) {
      const Tile& tile = (*ctx.tiles)[t];
      if (st.committed[t]) {
        const int dev = (*ctx.executed_device)[t];
        if (domain >= 0 && (dev < 0 || ctx.domain_of(dev) != domain)) {
          continue;
        }
        CheckpointSlice entry;
        entry.tile_index = t;
        entry.tile_id = std::int32_t(tile.id);
        entry.device = std::int32_t(dev);
        entry.node = std::int32_t(ctx.journal_node(dev));
        entry.complete = 1;
        entry.mode = (*ctx.final_mode)[t];
        entry.r_begin = tile.r_begin;
        entry.r_count = tile.r_count;
        entry.q_begin = tile.q_begin;
        entry.q_count = tile.q_count;
        entry.dims = ctx.dims;
        entry.profile = (*ctx.results)[t].profile;
        entry.index = (*ctx.results)[t].index;
        entry.prefilter = (*ctx.results)[t].prefilter;
        data.slices.push_back(std::move(entry));
        complete += 1;
      } else if (st.partials[t].r_count > 0 &&
                 (domain < 0 || st.partials[t].node == domain)) {
        data.slices.push_back(st.partials[t]);
      }
    }
    if (domain < 0) data.events = st.health.events;
    st.commits_since_checkpoint[std::size_t(std::max(domain, 0))] = 0;
  }
  write_checkpoint(path, data);
  {
    std::lock_guard lock(st.mutex);
    st.health.checkpoint_writes += 1;
    SchedulerMetrics::get().checkpoint_writes.add();
    log_event(st, {RunEvent::Kind::kCheckpointWritten, -1, -1,
                   std::to_string(complete) + "/" +
                       std::to_string(data.tile_count) + " tiles (" +
                       std::to_string(data.slices.size() - complete) +
                       " partial slices) -> " + path});
  }
}

/// SliceProgress::on_slice sink: records the snapshot of rows
/// [0, rows_done) of tile `t` as its journalled partial slice (keeping
/// the furthest snapshot when concurrent attempts race), flushes the
/// journal of the executing device's domain, and honours the
/// kill_after_slices chaos hook.  `prefix` (optional) is the restored row
/// prefix this attempt resumed from; its rows are folded in so the stored
/// slice always covers rows from 0.
void note_slice_snapshot(const RunContext& ctx, SchedulerState& st,
                         std::size_t t, int dev,
                         const CheckpointSlice* prefix,
                         std::size_t rows_done, std::vector<double> profile,
                         std::vector<std::int64_t> index) {
  const Tile& tile = (*ctx.tiles)[t];
  if (prefix != nullptr) {
    merge_min_span(prefix->profile.data(), prefix->index.data(),
                   profile.data(), index.data(), profile.size());
  }
  bool kill_due = false;
  {
    std::lock_guard lock(st.mutex);
    if (st.committed[t] || st.interrupted) return;
    CheckpointSlice& slot = st.partials[t];
    if (slot.r_count >= rows_done) return;  // a racing attempt got further
    slot.tile_index = t;
    slot.tile_id = std::int32_t(tile.id);
    slot.device = std::int32_t(dev);
    slot.node = std::int32_t(ctx.journal_node(dev));
    slot.complete = 0;
    slot.mode = ctx.config->mode;
    slot.r_begin = tile.r_begin;
    slot.r_count = rows_done;
    slot.q_begin = tile.q_begin;
    slot.q_count = tile.q_count;
    slot.dims = ctx.dims;
    slot.profile = std::move(profile);
    slot.index = std::move(index);
    st.health.slice_commits += 1;
    SchedulerMetrics::get().slice_commits.add();
    st.slice_commits_total += 1;
    kill_due =
        ctx.config->checkpoint.kill_after_slices > 0 &&
        st.slice_commits_total ==
            std::size_t(ctx.config->checkpoint.kill_after_slices);
  }
  write_journal(ctx, st, ctx.domain_of(dev));
  if (kill_due) request_shutdown();
}

/// Takes fault domain `k` down after a node crash: every device of the
/// domain is offline-blacklisted, its in-flight attempts are cancelled
/// (their workers requeue them on the way out) and its queued jobs are
/// requeued onto the surviving domains — or the CPU fallback when none
/// survive.  Caller holds the lock.
void crash_domain_locked(const RunContext& ctx, SchedulerState& st, int k,
                         const std::string& why) {
  if (st.domain_down[std::size_t(k)] != 0) return;
  st.domain_down[std::size_t(k)] = 1;
  st.health.node_crashes += 1;
  CoordinatorMetrics::get().node_crashes.add();
  log_event(st, {RunEvent::Kind::kNodeCrashed, -1, k, why});
  const int first = k * ctx.domain_devices;
  for (int dev = first; dev < first + ctx.domain_devices; ++dev) {
    if (st.blacklisted[std::size_t(dev)] == 0) {
      blacklist_locked(st, dev, /*offline=*/true,
                       "node " + std::to_string(k) + " crashed");
    }
    for (auto& [id, attempt] : st.inflight) {
      if (attempt.device == dev) attempt.token->cancel();
    }
    std::deque<TileJob> orphans = std::move(st.queues[std::size_t(dev)]);
    st.queues[std::size_t(dev)].clear();
    for (TileJob& job : orphans) {
      const int tile_id = (*ctx.tiles)[job.index].id;
      requeue_locked(st, std::move(job), tile_id);
    }
  }
}

/// Pops the next job for `dev`: its own queue first, then the orphans of
/// blacklisted devices, then — with stealing on — the newest job of the
/// longest queue in another live domain (never a domain's last queued
/// job, so a domain always starts at least one of its own tiles).  Jobs
/// whose tile committed while queued are dropped on the way.  Caller
/// holds the lock.
bool take_job_locked(const RunContext& ctx, SchedulerState& st, int dev,
                     TileJob& job) {
  const int domain = ctx.domain_of(dev);
  for (;;) {
    std::deque<TileJob>* from = &st.queues[std::size_t(dev)];
    bool orphan = false;
    int victim = -1;
    if (from->empty()) {
      from = nullptr;
      for (int other = 0; other < int(st.queues.size()); ++other) {
        if (st.blacklisted[std::size_t(other)] != 0 &&
            !st.queues[std::size_t(other)].empty()) {
          from = &st.queues[std::size_t(other)];
          orphan = true;
          break;
        }
      }
    }
    if (from == nullptr && ctx.domains.steal && ctx.domains.nodes > 1) {
      std::vector<std::size_t> queued(std::size_t(ctx.domains.nodes), 0);
      for (int other = 0; other < int(st.queues.size()); ++other) {
        queued[std::size_t(ctx.domain_of(other))] +=
            st.queues[std::size_t(other)].size();
      }
      std::size_t best = 0;
      for (int other = 0; other < int(st.queues.size()); ++other) {
        const int k = ctx.domain_of(other);
        const std::size_t depth = st.queues[std::size_t(other)].size();
        if (k == domain || st.blacklisted[std::size_t(other)] != 0 ||
            queued[std::size_t(k)] < 2 || depth <= best) {
          continue;
        }
        best = depth;
        victim = other;
      }
      if (victim >= 0) from = &st.queues[std::size_t(victim)];
    }
    if (from == nullptr) return false;
    if (victim >= 0) {
      job = std::move(from->back());
      from->pop_back();
    } else {
      job = std::move(from->front());
      from->pop_front();
    }
    if (st.committed[job.index]) {
      if (job.speculative) st.backups_inflight[job.index] -= 1;
      continue;  // stale: committed while it sat in a queue
    }
    const int tile_id = (*ctx.tiles)[job.index].id;
    if (orphan) {
      st.health.reassigned_tiles += 1;
      SchedulerMetrics::get().reassigned.add();
      log_event(st, {RunEvent::Kind::kStolen, tile_id, dev, ""});
    } else if (victim >= 0) {
      st.health.node_steals += 1;
      CoordinatorMetrics::get().steals.add();
      log_event(st, {RunEvent::Kind::kNodeStolen, tile_id, domain,
                     "from node " + std::to_string(ctx.domain_of(victim))});
    }
    if (ctx.multi_node && !job.speculative) {
      CoordinatorMetrics::get().tiles_dispatched.add();
    }
    return true;
  }
}

/// Watchdog + shutdown monitor.  Wakes every watchdog_poll_ms: propagates
/// a requested shutdown to every in-flight attempt (cancel + unwind), and
/// — when the watchdog is enabled — flags attempts that overran their
/// deadline, launches speculative backups on other healthy devices
/// (preferring another domain, so a straggling node is duplicated onto a
/// different one), and blacklists devices that keep hanging.
void monitor_thread(const RunContext& ctx, SchedulerState& st) {
  const ResilienceConfig& rc = ctx.config->resilience;
  const auto poll = std::chrono::duration<double, std::milli>(
      rc.watchdog_poll_ms);
  std::unique_lock lock(st.mutex);
  while (!st.stop_monitor) {
    st.cv.wait_for(lock, poll, [&] { return st.stop_monitor; });
    if (st.stop_monitor) break;

    if (rc.honor_shutdown && !st.interrupted && shutdown_requested()) {
      st.interrupted = true;
      log_event(st, {RunEvent::Kind::kInterrupted, -1, -1,
                     std::to_string(st.total_commits) + "/" +
                         std::to_string(ctx.tiles->size()) +
                         " tiles committed"});
      for (auto& [id, attempt] : st.inflight) attempt.token->cancel();
      st.cv.notify_all();
    }
    if (!rc.watchdog || st.interrupted) continue;
    if (st.wall_per_modeled <= 0.0) continue;  // no calibration yet

    const double now = ctx.clock->seconds();
    for (auto& [id, attempt] : st.inflight) {
      if (attempt.fired) continue;
      const double deadline =
          std::max(rc.watchdog_min_deadline_ms * 1e-3,
                   rc.watchdog_slack * st.wall_per_modeled *
                       attempt.modeled_seconds);
      const double elapsed = now - attempt.start_seconds;
      if (elapsed < deadline) continue;

      attempt.fired = true;
      st.health.watchdog_fires += 1;
      SchedulerMetrics::get().watchdog_fires.add();
      log_event(st, {RunEvent::Kind::kWatchdogFired, attempt.tile_id,
                     attempt.device,
                     "attempt overran its deadline (" +
                         std::to_string(elapsed) + " s vs " +
                         std::to_string(deadline) + " s)"});
      if (MetricsRegistry::global().enabled()) {
        auto& reg = MetricsRegistry::global();
        reg.record_event({"watchdog fire tile " +
                              std::to_string(attempt.tile_id),
                          attempt.device, "watchdog", reg.now_seconds(),
                          0.0});
      }

      // Repeated hangs feed the blacklist exactly like failed tiles.
      st.watchdog_strikes[std::size_t(attempt.device)] += 1;
      const bool drop =
          st.blacklisted[std::size_t(attempt.device)] == 0 &&
          st.watchdog_strikes[std::size_t(attempt.device)] >=
              rc.blacklist_after;
      if (drop) {
        blacklist_locked(st, attempt.device, /*offline=*/false,
                         std::to_string(rc.blacklist_after) +
                             " watchdog deadline overruns");
        for (auto& [other_id, other] : st.inflight) {
          if (other.device == attempt.device) other.token->cancel();
        }
      }

      // Speculative re-execution: one backup per tile at a time, on the
      // least-loaded healthy device that is not the overdue one, in
      // another domain when one is healthy.  With no such device the
      // overdue attempt is cancelled instead, turning the hang into an
      // ordinary retry on whatever device remains.
      if (rc.speculate && st.committed[attempt.job_index] == 0 &&
          st.backups_inflight[attempt.job_index] == 0) {
        const int home = ctx.domain_of(attempt.device);
        int target = -1;
        std::size_t best = 0;
        bool best_remote = false;
        for (int dev = 0; dev < int(st.queues.size()); ++dev) {
          if (dev == attempt.device) continue;
          if (st.blacklisted[std::size_t(dev)] != 0) continue;
          const bool remote = ctx.domain_of(dev) != home;
          const std::size_t depth = st.queues[std::size_t(dev)].size();
          if (target < 0 || (remote && !best_remote) ||
              (remote == best_remote && depth < best)) {
            target = dev;
            best = depth;
            best_remote = remote;
          }
        }
        if (target >= 0) {
          TileJob backup;
          backup.index = attempt.job_index;
          backup.mode = attempt.mode;
          backup.speculative = true;
          st.backups_inflight[attempt.job_index] += 1;
          st.queues[std::size_t(target)].push_back(std::move(backup));
          log_event(st, {RunEvent::Kind::kSpeculated, attempt.tile_id,
                         target,
                         "backup of the attempt on device " +
                             std::to_string(attempt.device)});
          if (best_remote) {
            st.health.node_duplicates += 1;
            CoordinatorMetrics::get().duplicates.add();
            log_event(st, {RunEvent::Kind::kNodeDuplicated, attempt.tile_id,
                           ctx.domain_of(target),
                           "owner node " + std::to_string(home) +
                               " overdue"});
          }
        } else if (!drop) {
          attempt.token->cancel();
        }
      }
      st.cv.notify_all();
    }
  }
}

/// Per-device supervisor: pulls tiles (take_job_locked), retries
/// transient faults with exponential backoff, escalates numerically
/// poisoned tiles, and exits when blacklisted, interrupted, or when no
/// work can remain.
void device_worker(const RunContext& ctx, SchedulerState& st, int dev) {
  const ResilienceConfig& rc = ctx.config->resilience;
  const int domain = ctx.domain_of(dev);
  gpusim::CancellationToken token;
  for (;;) {
    TileJob job;
    {
      std::unique_lock lock(st.mutex);
      bool taken = false;
      st.cv.wait(lock, [&] {
        if (st.blacklisted[std::size_t(dev)] != 0) return true;
        if (st.outstanding == 0 || st.interrupted) return true;
        taken = take_job_locked(ctx, st, dev, job);
        return taken;
      });
      if (!taken) return;
    }
    const Tile& tile = (*ctx.tiles)[job.index];

    // ---- Attempt loop: retries and precision escalations. ----
    bool announced = false;  ///< node-fault hook fired for this popped job
    for (;;) {
      // Attempts run into a local result so concurrent attempts of the
      // same tile (primary + speculative backup) never share state; the
      // winner moves its vectors into the pinned slot under the lock.
      TileResult attempt;
      token.reset();
      std::uint64_t attempt_id;
      const double modeled_seconds = model_tile_seconds(
          ctx.system->device(dev).spec(), tile, ctx.reference->dims(),
          ctx.config->window, job.mode);

      // Row-slice durability for this attempt.  A restored prefix only
      // applies at its own precision (escalated attempts recompute the
      // whole tile); snapshots are only emitted at the run's base mode
      // (an escalated tile's partial state would not be restorable) and
      // never under the sketch prefilter (the engine refuses anyway).
      const CheckpointSlice& restored = (*ctx.prefixes)[job.index];
      const CheckpointSlice* prefix =
          restored.r_count > 0 && restored.mode == job.mode ? &restored
                                                            : nullptr;
      const bool journal_slices =
          ctx.config->checkpoint.enabled() &&
          ctx.config->checkpoint.slice_rows > 0 &&
          job.mode == ctx.config->mode &&
          !ctx.config->prefilter.enabled();
      SliceProgress progress;
      const SliceProgress* slice_ptr = nullptr;
      if (prefix != nullptr || journal_slices) {
        progress.start_row =
            prefix != nullptr ? std::size_t(prefix->r_count) : 0;
        if (journal_slices) {
          progress.slice_rows =
              std::size_t(ctx.config->checkpoint.slice_rows);
          progress.on_slice = [&ctx, &st, t = job.index, dev, prefix](
                                  std::size_t rows_done,
                                  std::vector<double> profile,
                                  std::vector<std::int64_t> index) {
            note_slice_snapshot(ctx, st, t, dev, prefix, rows_done,
                                std::move(profile), std::move(index));
          };
        }
        slice_ptr = &progress;
      }

      {
        std::lock_guard lock(st.mutex);
        if (st.committed[job.index] || st.interrupted) {
          if (job.speculative) st.backups_inflight[job.index] -= 1;
          break;
        }
        attempt_id = st.next_attempt_id++;
        st.inflight.emplace(
            attempt_id,
            AttemptRecord{job.index, tile.id, dev, job.mode,
                          ctx.clock->seconds(), modeled_seconds, &token,
                          job.speculative, false});
      }
      Stopwatch attempt_wall;
      try {
        // Measured wall-clock span of this attempt: the trace line every
        // Fig.4/Fig.5-style analysis of a *real* run is built from.
        ScopedEvent span(MetricsRegistry::global(),
                         "tile " + std::to_string(tile.id) + " " +
                             to_string(job.mode) +
                             (job.speculative ? " speculative" : ""),
                         dev, "tile", &SchedulerMetrics::get().tile_seconds);
        SchedulerMetrics::get().attempts.add();
        // Node-level fault site, once per popped job, registered in
        // inflight first so an injected node stall stays cancellable
        // (watchdog, first-finisher commit, shutdown).
        if (!announced && ctx.domains.injector != nullptr) {
          announced = true;
          ctx.domains.injector->fire(gpusim::FaultSite::kNodeTile, domain,
                                     "tile " + std::to_string(tile.id),
                                     &token);
        }
        execute_with_split(ctx, st, dev, job.mode, tile, attempt, &token, 0,
                           slice_ptr);
      } catch (const NodeFailedError& e) {
        // The simulated node is gone: its whole domain goes down with it.
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        crash_domain_locked(ctx, st, domain, e.what());
        requeue_locked(st, std::move(job), tile.id);
        st.cv.notify_all();
        return;  // this worker is done for good
      } catch (const CancelledError&) {
        // Not a fault: the scheduler itself withdrew this attempt.
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        if (st.committed[job.index]) {
          if (job.speculative) {
            st.backups_inflight[job.index] -= 1;
            st.health.speculative_losses += 1;
            SchedulerMetrics::get().speculative_losses.add();
            log_event(st,
                      {RunEvent::Kind::kSpeculationLost, tile.id, dev, ""});
          }
          break;  // tile done elsewhere; fetch the next job
        }
        if (st.interrupted) {
          if (job.speculative) st.backups_inflight[job.index] -= 1;
          break;  // run is unwinding; the wait predicate exits the worker
        }
        if (st.blacklisted[std::size_t(dev)] != 0) {
          requeue_locked(st, std::move(job), tile.id);
          st.cv.notify_all();
          return;  // this worker is done for good
        }
        continue;  // cancelled to break a hang: retry on the same device
      } catch (const DeviceFailedError& e) {
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        st.health.devices[std::size_t(dev)].faults += 1;
        blacklist_locked(st, dev, /*offline=*/true, e.what());
        requeue_locked(st, std::move(job), tile.id);
        st.cv.notify_all();
        return;  // this worker is done for good
      } catch (const std::exception& e) {
        std::unique_lock lock(st.mutex);
        st.inflight.erase(attempt_id);
        st.health.devices[std::size_t(dev)].faults += 1;
        if (job.retries_here < rc.max_retries) {
          job.retries_here += 1;
          st.health.retries += 1;
          SchedulerMetrics::get().retries.add();
          log_event(st, {RunEvent::Kind::kRetry, tile.id, dev,
                         std::string(e.what()) + " — retry " +
                             std::to_string(job.retries_here) + "/" +
                             std::to_string(rc.max_retries)});
          lock.unlock();
          const double ms =
              rc.backoff_ms * double(1 << (job.retries_here - 1));
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
          continue;  // retry on the same device
        }
        // Retry budget spent here: the device failed this whole tile.
        st.consecutive_failed_tiles[std::size_t(dev)] += 1;
        job.exhausted.insert(dev);
        log_event(st,
                  {RunEvent::Kind::kRetriesExhausted, tile.id, dev, e.what()});
        const bool drop =
            st.consecutive_failed_tiles[std::size_t(dev)] >=
            rc.blacklist_after;
        if (drop) {
          blacklist_locked(st, dev, /*offline=*/false,
                           std::to_string(rc.blacklist_after) +
                               " consecutive failed tiles");
        }
        requeue_locked(st, std::move(job), tile.id);
        st.cv.notify_all();
        if (drop) return;
        break;  // fetch the next job
      }
      const double attempt_seconds = attempt_wall.seconds();

      // Fold the restored row-prefix into the tail rows' result so the
      // committed tile covers rows from 0.  A no-op after a
      // memory-pressure split (whose sub-tiles recomputed every row —
      // with identical bits, the recurrence only depends on the seed
      // origin, so re-folding the prefix is idempotent).
      if (prefix != nullptr) {
        merge_min_span(prefix->profile.data(), prefix->index.data(),
                       attempt.profile.data(), attempt.index.data(),
                       attempt.profile.size());
      }

      // ---- Success: numerical self-healing, then commit. ----
      const double bad = non_finite_fraction(attempt.profile);
      if (rc.escalate_precision && bad > rc.non_finite_threshold) {
        const PrecisionMode next = escalated_precision(job.mode);
        if (next != job.mode) {
          std::lock_guard lock(st.mutex);
          st.inflight.erase(attempt_id);
          st.health.escalations.push_back(
              RunHealth::Escalation{tile.id, job.mode, next, bad});
          SchedulerMetrics::get().escalations.add();
          log_event(st, {RunEvent::Kind::kEscalated, tile.id, dev,
                         std::to_string(int(100.0 * bad)) +
                             "% non-finite, escalating " +
                             to_string(job.mode) + " -> " + to_string(next)});
          job.mode = next;
          continue;  // re-run one rung up
        }
      }
      bool checkpoint_due = false;
      bool kill_due = false;
      {
        std::lock_guard lock(st.mutex);
        st.inflight.erase(attempt_id);
        if (job.speculative) st.backups_inflight[job.index] -= 1;
        if (st.committed[job.index]) {
          // Lost the race against a concurrent attempt of the same tile.
          if (job.speculative) {
            st.health.speculative_losses += 1;
            SchedulerMetrics::get().speculative_losses.add();
            log_event(st,
                      {RunEvent::Kind::kSpeculationLost, tile.id, dev, ""});
          }
          if (ctx.multi_node &&
              ctx.domain_of((*ctx.executed_device)[job.index]) != domain) {
            CoordinatorMetrics::get().node_commit_conflicts.add();
          }
          break;
        }
        // First finisher wins: the one commit of this tile.
        st.committed[job.index] = 1;
        TileResult& slot = (*ctx.results)[job.index];
        slot.profile = std::move(attempt.profile);
        slot.index = std::move(attempt.index);
        slot.ledger.reset();
        slot.ledger.merge_from(attempt.ledger);
        slot.prefilter = attempt.prefilter;
        (*ctx.executed_device)[job.index] = dev;
        (*ctx.final_mode)[job.index] = job.mode;
        st.partials[job.index] = CheckpointSlice{};  // superseded
        st.health.devices[std::size_t(dev)].tiles_completed += 1;
        SchedulerMetrics::get().tiles_completed.add();
        if (ctx.multi_node) CoordinatorMetrics::get().node_commits.add();
        st.consecutive_failed_tiles[std::size_t(dev)] = 0;
        st.watchdog_strikes[std::size_t(dev)] = 0;
        if (job.speculative) {
          st.health.speculative_wins += 1;
          SchedulerMetrics::get().speculative_wins.add();
          log_event(st, {RunEvent::Kind::kSpeculationWon, tile.id, dev, ""});
        }
        // Withdraw every other attempt of this tile.
        for (auto& [other_id, other] : st.inflight) {
          if (other.job_index == job.index) other.token->cancel();
        }
        // Calibrate the watchdog's wall-per-modelled ratio from real
        // completions (EWMA; hung attempts never get here, so a hang
        // cannot poison the deadline upward).
        if (modeled_seconds > 0.0 && attempt_seconds > 0.0) {
          const double rate = attempt_seconds / modeled_seconds;
          st.wall_per_modeled = st.wall_per_modeled <= 0.0
                                    ? rate
                                    : 0.7 * st.wall_per_modeled + 0.3 * rate;
        }
        st.outstanding -= 1;
        st.total_commits += 1;
        std::size_t& since = st.commits_since_checkpoint[std::size_t(domain)];
        since += 1;
        checkpoint_due =
            ctx.config->checkpoint.enabled() &&
            since >= std::size_t(ctx.config->checkpoint.interval_tiles);
        kill_due = ctx.config->checkpoint.kill_after_tiles > 0 &&
                   st.total_commits ==
                       std::size_t(ctx.config->checkpoint.kill_after_tiles);
        st.cv.notify_all();
      }
      if (checkpoint_due) write_journal(ctx, st, domain);
      if (kill_due) request_shutdown();
      break;  // fetch the next job
    }
  }
}

/// Side journals a multi-node run may have left next to the base journal
/// (one per node id); restore probes this many of them.
constexpr int kMaxNodeJournals = 64;

/// Computes one orphaned tile on the CPU reference path.  In FP64 this is
/// bit-identical to the GPU engine (same precalculation, recurrence and
/// merge arithmetic over the same tile-local seeds).
void cpu_fallback_tile(const TimeSeries& reference, const TimeSeries& query,
                       std::size_t m, const Tile& tile,
                       std::int64_t exclusion, TileResult& result) {
  const TimeSeries sub_ref = reference.slice(tile.r_begin,
                                             tile.r_count + m - 1);
  const TimeSeries sub_query = query.slice(tile.q_begin,
                                           tile.q_count + m - 1);
  CpuReferenceConfig cc;
  cc.window = m;
  cc.exclusion = exclusion;
  cc.r_offset = std::int64_t(tile.r_begin);
  cc.q_offset = std::int64_t(tile.q_begin);
  const CpuReferenceResult cpu =
      compute_matrix_profile_cpu(sub_ref, sub_query, cc);
  result.profile = cpu.profile;
  result.ledger.reset();
  result.prefilter = {};  // the CPU fallback always runs every column exact
  result.index.resize(cpu.index.size());
  for (std::size_t e = 0; e < cpu.index.size(); ++e) {
    // Local reference rows become global segment indices.
    result.index[e] =
        cpu.index[e] < 0 ? -1 : cpu.index[e] + std::int64_t(tile.r_begin);
  }
}


/// Journal state restored against the *current* tile grid.  v3 journals
/// key slices by absolute row/column ranges, so a journal written under a
/// different grid (or node count) re-keys here: slices that exactly cover
/// a current tile restore it whole; row-prefix slices seed a partial
/// restore (the tail rows re-execute after a QT-only replay); everything
/// else is discarded with a kSliceDiscarded record.
struct RestoredState {
  std::vector<char> committed;        ///< per tile: fully restored
  std::vector<TileResult> results;    ///< filled where committed
  std::vector<int> executed_device;   ///< journalled device (-1 = CPU)
  std::vector<PrecisionMode> final_mode;
  std::vector<CheckpointSlice> prefixes;  ///< per tile; r_count==0 = none
  std::vector<RunEvent> events;       ///< prior run's event history
  std::vector<RunEvent> log;          ///< restore-time events to append
  std::size_t resumed = 0;            ///< tiles restored whole
  std::size_t partial = 0;            ///< tiles seeded from a row prefix
  std::size_t discarded = 0;          ///< slices unusable on this grid
  std::size_t fallbacks = 0;          ///< journals rejected (missing/...)
};

/// Reads `resume_path` plus any per-node side journals
/// (`resume_path + ".node<k>"`) and re-keys their slices onto `tiles`.
/// Unreadable journals never take the run down: each missing / corrupt /
/// fingerprint-mismatched file is reported as a kResumeFallback entry in
/// RestoredState::log (a missing base journal is only reported when no
/// journal at all was readable — per-node files are optional by design).
RestoredState restore_from_journals(const std::string& resume_path,
                                    std::uint64_t fingerprint,
                                    const std::vector<Tile>& tiles,
                                    std::size_t dims,
                                    const MatrixProfileConfig& config) {
  RestoredState out;
  out.committed.assign(tiles.size(), 0);
  out.results = std::vector<TileResult>(tiles.size());
  out.executed_device.assign(tiles.size(), -1);
  out.final_mode.assign(tiles.size(), config.mode);
  out.prefixes.assign(tiles.size(), CheckpointSlice{});
  if (resume_path.empty()) return out;

  auto note_fallback = [&out](const std::string& why) {
    out.fallbacks += 1;
    out.log.push_back({RunEvent::Kind::kResumeFallback, -1, -1, why});
  };

  // The base journal (the single-node / coordinator one) carries the
  // prior run's event history; per-node side journals only add slices.
  std::vector<CheckpointData> journals;
  std::string base_missing;
  try {
    CheckpointData data = read_checkpoint(resume_path);
    if (data.fingerprint != fingerprint) {
      note_fallback("journal '" + resume_path +
                    "' was written for different inputs or configuration "
                    "(fingerprint mismatch), starting fresh");
    } else {
      out.events = data.events;
      journals.push_back(std::move(data));
    }
  } catch (const CheckpointError& e) {
    if (e.reason() == CheckpointError::Reason::kMissing) {
      base_missing = e.what();
    } else {
      note_fallback("journal '" + resume_path + "' is unreadable (" +
                    e.what() + "), starting fresh");
    }
  }
  for (int node = 0; node < kMaxNodeJournals; ++node) {
    const std::string path = resume_path + ".node" + std::to_string(node);
    try {
      CheckpointData data = read_checkpoint(path);
      if (data.fingerprint != fingerprint) {
        note_fallback("journal '" + path +
                      "' was written for different inputs or configuration "
                      "(fingerprint mismatch), ignoring it");
        continue;
      }
      journals.push_back(std::move(data));
    } catch (const CheckpointError& e) {
      // Absent node journals are the norm: a run with fewer nodes simply
      // wrote fewer of them (and a crashed node never flushed one).
      if (e.reason() == CheckpointError::Reason::kMissing) continue;
      note_fallback("journal '" + path + "' is unreadable (" + e.what() +
                    "), ignoring it");
    }
  }
  if (!base_missing.empty() && journals.empty()) {
    note_fallback("journal '" + resume_path + "' is missing (" +
                  base_missing + "), starting fresh");
  }

  // Re-key every journalled slice by its absolute row/column ranges
  // against the *current* grid — the journal may have been written under
  // a different tile count or node count.
  for (const CheckpointData& data : journals) {
    for (const CheckpointSlice& slice : data.slices) {
      std::size_t target = tiles.size();
      SliceFit fit = SliceFit::kNone;
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        fit = classify_slice(std::size_t(slice.r_begin),
                             std::size_t(slice.r_count),
                             std::size_t(slice.q_begin),
                             std::size_t(slice.q_count),
                             std::size_t(slice.dims), tiles[t], dims);
        if (fit != SliceFit::kNone) {
          target = t;
          break;
        }
      }
      if (target == tiles.size()) {
        out.discarded += 1;
        out.log.push_back(
            {RunEvent::Kind::kSliceDiscarded, int(slice.tile_id),
             int(slice.device),
             "rows [" + std::to_string(slice.r_begin) + ", +" +
                 std::to_string(slice.r_count) + ") x cols [" +
                 std::to_string(slice.q_begin) + ", +" +
                 std::to_string(slice.q_count) +
                 ") does not fit the current tile grid"});
        continue;
      }
      if (fit == SliceFit::kComplete) {
        if (out.committed[target]) continue;  // duplicate across journals
        out.committed[target] = 1;
        out.results[target].profile = slice.profile;
        out.results[target].index = slice.index;
        out.results[target].prefilter = slice.prefilter;
        out.executed_device[target] = int(slice.device);
        out.final_mode[target] = slice.mode;
        out.resumed += 1;
        continue;
      }
      // Row prefix: only usable at the run's base precision and without
      // the prefilter — the tail attempt's QT-only replay must reproduce
      // the exact recurrence state the journalled rows were computed in.
      if (slice.mode != config.mode || config.prefilter.enabled()) {
        out.discarded += 1;
        out.log.push_back(
            {RunEvent::Kind::kSliceDiscarded, int(slice.tile_id),
             int(slice.device),
             "row prefix at " + to_string(slice.mode) +
                 " is not restorable under this configuration"});
        continue;
      }
      CheckpointSlice& best = out.prefixes[target];
      if (std::size_t(slice.r_count) > std::size_t(best.r_count)) {
        best = slice;  // keep the furthest prefix
      }
    }
  }

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (out.committed[t]) {
      out.prefixes[t] = CheckpointSlice{};  // complete restore supersedes
      continue;
    }
    if (out.prefixes[t].r_count == 0) continue;
    out.partial += 1;
    out.log.push_back(
        {RunEvent::Kind::kSliceRestored, tiles[t].id,
         int(out.prefixes[t].device),
         "rows [0, +" + std::to_string(out.prefixes[t].r_count) + ") of " +
             std::to_string(tiles[t].r_count) +
             " restored; tail resumes after a QT-only replay"});
  }
  return out;
}


/// Assembles committed per-tile results into the final profile: the CPU
/// column merge (Pseudocode 2, lines 6-8), the modelled makespan grouped
/// by executing device (-1 = CPU fallback, no device time), the
/// per-kernel breakdown (+ registry gauges) and the aggregated prefilter
/// accounting.  health/wall_seconds are left for the caller.
MatrixProfileResult assemble_tile_results(
    const std::vector<Tile>& tiles, std::vector<TileResult>& results,
    const std::vector<int>& executed_device, std::size_t n_q, std::size_t d,
    int streams_per_device) {
  // ---- CPU merge (Pseudocode 2, lines 6-8). ----
  // Parallel over output columns; bit-identical to the serial merge (each
  // column sees the tiles in the same ascending order).
  MatrixProfileResult out;
  {
    ScopedEvent span(MetricsRegistry::global(), "merge_tile_results", -1,
                     "cpu");
    ThreadPool merge_pool;
    merge_tile_results(tiles, results, n_q, d, out, &merge_pool);
  }

  // ---- Modelled makespan (grouped by the device that ran each tile;
  // device indices are global, so a multi-node run's makespan spans the
  // whole cluster's fleet). ----
  int device_count = 0;
  for (const int dev : executed_device) {
    device_count = std::max(device_count, dev + 1);
  }
  std::vector<TileTimes> device_time(static_cast<std::size_t>(device_count));
  std::vector<int> device_tiles(static_cast<std::size_t>(device_count), 0);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (executed_device[t] < 0) continue;  // CPU fallback: no device time
    const auto tt = tile_times(results[t].ledger);
    auto& acc = device_time[std::size_t(executed_device[t])];
    acc.kernels += tt.kernels;
    acc.copies += tt.copies;
    device_tiles[std::size_t(executed_device[t])] += 1;
  }
  double makespan = 0.0;
  for (std::size_t dev = 0; dev < device_time.size(); ++dev) {
    const bool overlapped = streams_per_device > 1 && device_tiles[dev] > 1;
    const double t = overlapped
                         ? std::max(device_time[dev].kernels,
                                    device_time[dev].copies)
                         : device_time[dev].kernels + device_time[dev].copies;
    makespan = std::max(makespan, t);
  }
  out.modeled_device_seconds = makespan;
  out.modeled_merge_seconds = 0.0;
  for (const auto& tile : tiles) {
    out.modeled_merge_seconds += model_merge_seconds(1, tile.q_count, d);
  }

  // ---- Per-kernel breakdown (successful attempts only). ----
  gpusim::KernelLedger merged;
  for (const auto& r : results) merged.merge_from(r.ledger);
  for (const auto& [name, stats] : merged.all()) {
    out.breakdown.push_back(KernelBreakdownEntry{
        name, stats.launches, stats.modeled_seconds, stats.measured_seconds});
  }
  // Per-kernel accounting in the registry: measured wall seconds next to
  // the roofline-modelled seconds of the same launches (registration cost
  // only here, at end of run; nothing when the registry is disabled).
  if (MetricsRegistry::global().enabled()) {
    auto& reg = MetricsRegistry::global();
    for (const auto& entry : out.breakdown) {
      reg.counter("kernel." + entry.name + ".launches")
          .add(std::uint64_t(entry.launches));
      reg.gauge("kernel." + entry.name + ".wall_seconds")
          .set(entry.measured_seconds);
      reg.gauge("kernel." + entry.name + ".modeled_seconds")
          .set(entry.modeled_seconds);
    }
  }

  // ---- Prefilter accounting (sketch runs only; exact runs stay all-zero
  // and emit nothing).  Stats survive retries, sub-tile splits, checkpoint
  // resume and the CPU fallback because every path above fills or merges
  // the per-tile PrefilterStats it commits.
  for (const auto& r : results) out.prefilter.merge_from(r.prefilter);
  if (out.prefilter.any() && MetricsRegistry::global().enabled()) {
    auto& reg = MetricsRegistry::global();
    reg.counter("prefilter.blocks_total").add(out.prefilter.blocks_total);
    reg.counter("prefilter.blocks_skipped")
        .add(out.prefilter.blocks_skipped);
    reg.counter("prefilter.blocks_verified")
        .add(out.prefilter.blocks_verified);
    reg.counter("prefilter.cols_skipped").add(out.prefilter.cols_skipped);
    reg.counter("prefilter.cols_verified").add(out.prefilter.cols_verified);
    reg.counter("prefilter.cols_missed").add(out.prefilter.cols_missed);
    reg.gauge("prefilter.miss_rate")
        .set(out.prefilter.cols_verified == 0
                 ? 0.0
                 : double(out.prefilter.cols_missed) /
                       double(out.prefilter.cols_verified));
  }
  return out;
}


}  // namespace

std::string RunEvent::to_string() const {
  const std::string tile = "tile " + std::to_string(tile_id);
  const std::string dev = "device " + std::to_string(device);
  switch (kind) {
    case Kind::kRetry:
      return tile + ": " + detail + " on " + dev;
    case Kind::kRetriesExhausted:
      return tile + ": retries exhausted on " + dev + " (" + detail + ")";
    case Kind::kReassigned:
      return tile + ": reassigned to " + dev;
    case Kind::kStolen:
      return tile + ": stolen by " + dev;
    case Kind::kBlacklisted:
      return dev + " blacklisted: " + detail;
    case Kind::kDeferredToCpu:
      return tile + ": no healthy device left, deferring to CPU fallback";
    case Kind::kCpuFallback:
      return tile + ": completed on the CPU reference path (FP64)";
    case Kind::kEscalated:
      return tile + ": " + detail;
    case Kind::kWatchdogFired:
      return tile + ": watchdog fired on " + dev + " (" + detail + ")";
    case Kind::kSpeculated:
      return tile + ": speculative backup launched on " + dev + " (" +
             detail + ")";
    case Kind::kSpeculationWon:
      return tile + ": speculative backup on " + dev + " won";
    case Kind::kSpeculationLost:
      return tile + ": attempt on " + dev + " cancelled, tile won elsewhere";
    case Kind::kTileSplit:
      return tile + ": memory pressure on " + dev + ", " + detail;
    case Kind::kResumed:
      return detail.empty() ? tile + ": restored from checkpoint"
                            : "checkpoint resume: " + detail;
    case Kind::kCheckpointWritten:
      return "checkpoint written (" + detail + ")";
    case Kind::kInterrupted:
      return "shutdown requested, stopping (" + detail + ")";
    case Kind::kResumeFallback:
      return "resume fallback: " + detail;
    case Kind::kSliceRestored:
      return tile + ": " + detail;
    case Kind::kSliceDiscarded:
      return tile + ": journalled slice discarded (" + detail + ")";
    case Kind::kNodeJoined:
      return "node " + std::to_string(device) + " joined (" + detail + ")";
    case Kind::kNodeCrashed:
      return "node " + std::to_string(device) + " crashed: " + detail;
    case Kind::kNodeStolen:
      return tile + ": stolen by node " + std::to_string(device) +
             (detail.empty() ? "" : " (" + detail + ")");
    case Kind::kNodeDuplicated:
      return tile + ": straggler duplicated to node " +
             std::to_string(device) + " (" + detail + ")";
  }
  return detail;
}

std::string RunHealth::summary() const {
  std::ostringstream os;
  os << "run health: " << (degraded ? "DEGRADED" : "clean") << " — "
     << faults_injected << " fault(s), " << retries << " retry(ies), "
     << reassigned_tiles << " reassignment(s), " << blacklist_events
     << " blacklist(s), " << cpu_fallback_tiles << " CPU-fallback tile(s), "
     << escalations.size() << " escalation(s)\n";
  if (resumed_tiles > 0 || checkpoint_writes > 0 || watchdog_fires > 0 ||
      speculative_wins > 0 || speculative_losses > 0 || tile_splits > 0 ||
      slice_commits > 0 || partial_slices > 0 || resume_fallbacks > 0 ||
      slices_discarded > 0) {
    os << "  durability: " << resumed_tiles << " tile(s) resumed, "
       << checkpoint_writes << " checkpoint write(s), " << watchdog_fires
       << " watchdog fire(s), " << speculative_wins << " speculative win(s)/"
       << speculative_losses << " loss(es), " << tile_splits
       << " tile split(s), " << slice_commits << " slice commit(s), "
       << partial_slices << " partial restore(s), " << slices_discarded
       << " slice(s) discarded, " << resume_fallbacks
       << " resume fallback(s)\n";
  }
  if (node_crashes > 0 || node_steals > 0 || node_duplicates > 0) {
    os << "  cluster: " << node_crashes << " node crash(es), " << node_steals
       << " cross-node steal(s), " << node_duplicates
       << " straggler duplicate(s)\n";
  }
  for (const auto& dev : devices) {
    os << "  device " << dev.device << ": " << dev.tiles_completed
       << " tile(s), " << dev.faults << " fault(s)"
       << (dev.offline ? ", OFFLINE" : dev.blacklisted ? ", BLACKLISTED" : "")
       << "\n";
  }
  for (const auto& esc : escalations) {
    os << "  tile " << esc.tile_id << ": escalated " << to_string(esc.from)
       << " -> " << to_string(esc.to) << " ("
       << int(100.0 * esc.non_finite_fraction) << "% non-finite)\n";
  }
  for (const auto& event : events) {
    os << "  | " << event.to_string() << "\n";
  }
  return os.str();
}


MatrixProfileResult run_resilient(gpusim::System& system,
                                  const TimeSeries& reference,
                                  const TimeSeries& query,
                                  const MatrixProfileConfig& config,
                                  const FaultDomains& domains) {
  const std::size_t m = config.window;
  const std::size_t d = reference.dims();
  const std::size_t n_r = reference.segment_count(m);
  const std::size_t n_q = query.segment_count(m);
  MPSIM_CHECK(n_r >= 1 && n_q >= 1,
              "window " << m << " longer than the input series");
  const int devices = system.device_count();
  MPSIM_CHECK(domains.nodes >= 1 && devices % domains.nodes == 0,
              devices << " devices do not split into " << domains.nodes
                      << " equal fault domains");
  const bool multi_node = domains.nodes > 1 || domains.injector != nullptr;

  Stopwatch wall;
  auto& registry = MetricsRegistry::global();
  ScopedEvent run_span(registry, multi_node ? "coordinator" : "run_resilient",
                       -1, "cpu");
  if (multi_node) CoordinatorMetrics::get().nodes.set(double(domains.nodes));

  auto tiles = compute_tile_list(n_r, n_q, config.tiles);
  if (config.assignment == TileAssignment::kLpt) {
    assign_tiles_lpt(tiles, devices);
  } else {
    assign_tiles_round_robin(tiles, devices);
  }

  // One stream pool per device; a tile occupies one stream per attempt so
  // the stream's error capture isolates failures per tile.
  std::vector<std::unique_ptr<gpusim::StreamPool>> pools;
  for (int dev = 0; dev < devices; ++dev) {
    pools.push_back(std::make_unique<gpusim::StreamPool>(
        system.device(dev), config.streams_per_device));
  }

  std::vector<TileResult> results(tiles.size());
  std::vector<int> executed_device(tiles.size(), -1);
  std::vector<PrecisionMode> final_mode(tiles.size(), config.mode);

  SchedulerState st;
  st.queues.resize(std::size_t(devices));
  st.blacklisted.assign(std::size_t(devices), 0);
  st.consecutive_failed_tiles.assign(std::size_t(devices), 0);
  st.watchdog_strikes.assign(std::size_t(devices), 0);
  st.committed.assign(tiles.size(), 0);
  st.backups_inflight.assign(tiles.size(), 0);
  st.partials.assign(tiles.size(), CheckpointSlice{});
  st.domain_down.assign(std::size_t(domains.nodes), 0);
  st.domain_workers.assign(std::size_t(domains.nodes),
                           devices / domains.nodes);
  st.commits_since_checkpoint.assign(std::size_t(domains.nodes), 0);
  st.journal_io = std::make_unique<std::mutex[]>(std::size_t(domains.nodes));
  for (int dev = 0; dev < devices; ++dev) {
    RunHealth::DeviceStatus status;
    status.device = dev;
    st.health.devices.push_back(status);
  }

  // Shared across devices and attempts: series conversion happens once per
  // storage format for the whole run (retries/escalations reuse it too).
  // A caller-provided cache (config.staging_cache, e.g. the serve daemon's
  // per-input cache) extends the reuse across whole runs.
  StagingCache local_staging(reference, query);

  RunContext ctx;
  ctx.system = &system;
  ctx.reference = &reference;
  ctx.query = &query;
  ctx.config = &config;
  ctx.staging = config.staging_cache != nullptr ? config.staging_cache
                                                : &local_staging;
  for (auto& pool : pools) ctx.pools.push_back(pool.get());
  ctx.tiles = &tiles;
  ctx.results = &results;
  ctx.executed_device = &executed_device;
  ctx.final_mode = &final_mode;
  ctx.clock = &wall;
  ctx.fingerprint = checkpoint_fingerprint(reference, query, config);
  ctx.dims = d;
  std::vector<CheckpointSlice> prefixes(tiles.size());
  ctx.prefixes = &prefixes;
  ctx.domains = domains;
  ctx.domain_devices = devices / domains.nodes;
  ctx.multi_node = multi_node;

  // ---- Resume: re-key journalled slices onto this run's grid. ----
  // A bad journal must never take the run down (every rejection is a
  // structured kResumeFallback event), and a journal written under a
  // different tile grid or node count restores whatever still fits:
  // exact-cover slices whole, row prefixes partially (the tail replays
  // QT-only), the rest is discarded and recomputed.
  std::size_t resumed = 0;
  if (!config.checkpoint.resume_path.empty()) {
    RestoredState restored = restore_from_journals(
        config.checkpoint.resume_path, ctx.fingerprint, tiles, d, config);
    st.health.events = std::move(restored.events);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      if (!restored.committed[t]) continue;
      st.committed[t] = 1;
      results[t].profile = std::move(restored.results[t].profile);
      results[t].index = std::move(restored.results[t].index);
      results[t].prefilter = restored.results[t].prefilter;
      executed_device[t] = restored.executed_device[t];
      final_mode[t] = restored.final_mode[t];
    }
    prefixes = std::move(restored.prefixes);
    resumed = restored.resumed;
    st.health.resumed_tiles = int(resumed);
    st.health.partial_slices = int(restored.partial);
    st.health.resume_fallbacks = int(restored.fallbacks);
    st.health.slices_discarded = int(restored.discarded);
    st.total_commits = resumed;
    SchedulerMetrics::get().tiles_resumed.add(resumed);
    SchedulerMetrics::get().slices_partial.add(restored.partial);
    SchedulerMetrics::get().resume_fallback.add(restored.fallbacks);
    SchedulerMetrics::get().slices_discarded.add(restored.discarded);
    for (RunEvent& event : restored.log) log_event(st, std::move(event));
    if (resumed > 0 || restored.partial > 0) {
      log_event(st, {RunEvent::Kind::kResumed, -1, -1,
                     std::to_string(resumed) + "/" +
                         std::to_string(tiles.size()) + " tiles (+" +
                         std::to_string(restored.partial) +
                         " partial) from " +
                         config.checkpoint.resume_path});
    }
  }
  if (multi_node) {
    for (int k = 0; k < domains.nodes; ++k) {
      const int first = k * ctx.domain_devices;
      log_event(st, {RunEvent::Kind::kNodeJoined, -1, k,
                     std::to_string(ctx.domain_devices) +
                         " device(s), global ids " + std::to_string(first) +
                         ".." +
                         std::to_string(first + ctx.domain_devices - 1)});
    }
  }

  st.outstanding = tiles.size() - resumed;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (st.committed[t]) continue;
    TileJob job;
    job.index = t;
    job.mode = config.mode;
    st.queues[std::size_t(tiles[t].device)].push_back(std::move(job));
  }

  if (st.outstanding > 0) {
    const double launch = registry.now_seconds();
    std::vector<std::thread> workers;
    workers.reserve(std::size_t(devices));
    for (int dev = 0; dev < devices; ++dev) {
      workers.emplace_back([&ctx, &st, &registry, launch, dev] {
        device_worker(ctx, st, dev);
        if (!ctx.multi_node) return;
        // A node's lifecycle span ends when its last worker retires.
        const int k = ctx.domain_of(dev);
        std::lock_guard lock(st.mutex);
        if (--st.domain_workers[std::size_t(k)] == 0) {
          registry.record_event({"node " + std::to_string(k), k, "node",
                                 launch, registry.now_seconds() - launch});
        }
      });
    }
    std::thread monitor([&ctx, &st] { monitor_thread(ctx, st); });
    for (auto& w : workers) w.join();
    {
      std::lock_guard lock(st.mutex);
      st.stop_monitor = true;
    }
    st.cv.notify_all();
    monitor.join();
  }

  // ---- Interruption: flush the journal and unwind. ----
  if (st.interrupted) {
    write_journal(ctx, st, -1);
    std::string what = "run interrupted: " +
                       std::to_string(st.total_commits) + "/" +
                       std::to_string(tiles.size()) + " tiles committed";
    if (config.checkpoint.enabled()) {
      what += "; checkpoint flushed to " + config.checkpoint.write_path +
              " (resume with --resume=" + config.checkpoint.write_path + ")";
    }
    throw InterruptedError(what);
  }

  // ---- Graceful degradation: finish orphans on the CPU reference. ----
  std::vector<TileJob> leftovers = std::move(st.cpu_jobs);
  for (auto& queue : st.queues) {
    for (auto& job : queue) leftovers.push_back(std::move(job));
    queue.clear();
  }
  if (!leftovers.empty() && !config.resilience.cpu_fallback) {
    throw Error("all devices failed and the CPU fallback is disabled (" +
                std::to_string(leftovers.size()) + " tiles incomplete)");
  }
  for (auto& job : leftovers) {
    if (st.committed[job.index]) continue;  // stale queue remnant
    const Tile& tile = tiles[job.index];
    {
      ScopedEvent span(registry,
                       "tile " + std::to_string(tile.id) + " cpu-fallback",
                       -1, "cpu", &SchedulerMetrics::get().tile_seconds);
      cpu_fallback_tile(reference, query, m, tile, config.exclusion,
                        results[job.index]);
    }
    st.committed[job.index] = 1;
    st.total_commits += 1;
    executed_device[job.index] = -1;
    final_mode[job.index] = PrecisionMode::FP64;
    st.health.cpu_fallback_tiles += 1;
    SchedulerMetrics::get().cpu_fallback.add();
    if (multi_node) CoordinatorMetrics::get().cpu_fallback_tiles.add();
    log_event(st, {RunEvent::Kind::kCpuFallback, tile.id, -1, ""});
  }

  // ---- Final journal: a complete run leaves a complete checkpoint. ----
  if (config.checkpoint.enabled()) write_journal(ctx, st, -1);

  MatrixProfileResult out = assemble_tile_results(
      tiles, results, executed_device, n_q, d, config.streams_per_device);

  // ---- Health report. ----
  out.health = std::move(st.health);
  if (gpusim::FaultInjector* injector =
          system.device(0).fault_injector()) {
    out.health.faults_injected = int(injector->fault_count());
  }
  if (domains.injector != nullptr) {
    out.health.faults_injected += int(domains.injector->fault_count());
  }
  out.health.degraded = out.health.blacklist_events > 0 ||
                        out.health.cpu_fallback_tiles > 0 ||
                        out.health.retries > 0 ||
                        out.health.reassigned_tiles > 0 ||
                        out.health.watchdog_fires > 0 ||
                        out.health.tile_splits > 0 ||
                        out.health.node_crashes > 0;

  out.wall_seconds = wall.seconds();
  return out;
}

}  // namespace mpsim::mp
