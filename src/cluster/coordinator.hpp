// Elastic multi-node execution: the tile grid runs across N simulated
// nodes that may crash, straggle or be stolen from — with byte-identical
// output to the single-node run.
//
// A node is a fault domain of the one resilient scheduler
// (mp/resilient.hpp): the run builds a single gpusim::System of
// nodes × config.devices devices, node k owning devices
// [k*devices, (k+1)*devices), and mp::run_resilient supervises them with
// one lock, one commit table, one watchdog and one CPU fallback.  The
// node-level behaviours are domain-aware rules of that scheduler:
//
//  * node crash — an injected node_crash offline-blacklists the node's
//    devices and requeues its tiles onto the surviving nodes; if every
//    node dies the remainder finishes on the CPU reference path;
//  * cross-node stealing (--steal) — an idle device takes the newest
//    queued tile of another node's longest queue, never its last one;
//  * straggler re-execution — the watchdog's speculative backup (opt-in
//    with resilience.watchdog) prefers a device on another node; first
//    commit wins, the loser is cancelled (node.commit_conflicts);
//  * durability — every node journals its own commits and row-slice
//    snapshots to `<write_path>.node<k>`, and the whole-run journal is
//    written at interruption and completion.  Resume reads all of them
//    and re-keys the slices onto the current grid, so a run killed at
//    any point resumes onto a different node count — or a different
//    tile grid — bit-identically.
//
// Bit-identity argument: a tile's output bits depend only on its seed
// origin and column range, never on which node/device computed it, how
// often it was retried or duplicated, or how its rows were sliced for
// journalling.  First-commit-wins keeps exactly one result per tile, and
// the final column merge consumes the tiles in grid order.
#pragma once

#include <string>

#include "mp/matrix_profile.hpp"

namespace mpsim::cluster {

/// Knobs of the elastic multi-node run (the mpsim_cli --nodes /
/// --node-faults / --steal surface).
struct ElasticClusterConfig {
  /// Simulated nodes, each of config.devices devices.  Capped at 64 —
  /// resume probes that many per-node side journals.
  int nodes = 1;

  /// Cross-node stealing of queued tiles.  Off still requeues a crashed
  /// node's tiles onto the survivors.
  bool steal = true;

  /// Fault spec for the node-level injector (gpusim::parse_fault_spec;
  /// node_crash / node_stall / node_slow fire at the per-node kNodeTile
  /// site, "@device" selects the *node*).  Separate from
  /// config.fault_injector, which keeps addressing the devices (by global
  /// index) across every node.
  std::string node_faults;
};

/// Computes the matrix profile across `cluster.nodes` simulated nodes.
/// Output (profile/index bytes) is identical to the single-node run for
/// every precision mode.  Throws InterruptedError after
/// flushing the journal when a shutdown request (or a kill_after_tiles /
/// kill_after_slices chaos kill) stops the run early.
mp::MatrixProfileResult compute_matrix_profile_elastic(
    const TimeSeries& reference, const TimeSeries& query,
    const mp::MatrixProfileConfig& config,
    const ElasticClusterConfig& cluster);

}  // namespace mpsim::cluster
