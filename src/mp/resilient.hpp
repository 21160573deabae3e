// Resilient multi-tile scheduler — the fault-tolerant rework of the
// paper's Pseudocode 2 execution layer, and the only scheduler in the
// tree: single-node runs and the elastic multi-node runs of src/cluster
// both execute here.
//
// Tiles are partitioned and statically assigned exactly as before (static
// Round-robin or LPT, preserving the paper's scaling behaviour and the
// modelled makespan), but execution is supervised per tile:
//
//  * per-tile failure isolation — each tile runs as one stream task and is
//    synchronized individually, so the stream's error capture attributes
//    every failure to the tile that raised it;
//  * bounded retry with exponential backoff for transient faults
//    (TransientFaultError, DeviceMemoryError, ...);
//  * device blacklisting after K consecutive failed tiles, with
//    work-stealing reassignment of the blacklisted device's orphaned
//    tiles to healthy devices (the run completes on N-1 devices);
//  * graceful degradation — when every device has failed, the remaining
//    tiles finish on the CPU reference path (bit-identical in FP64);
//  * numerical self-healing — a completed tile whose profile has too many
//    non-finite entries is re-run one precision rung up
//    (FP16 → Mixed → FP32 → FP64), per-tile, recording the escalation.
//
// Fault domains (the paper's §VII "multiple nodes" extension): the
// system's devices are grouped into FaultDomains::nodes equal domains,
// node k owning devices [k*D, (k+1)*D).  There is still one lock, one
// commit table, one watchdog and one CPU fallback; each node-level
// mechanism is a domain-aware rule of the device-level one:
//
//  * node crash — the node injector fires once per popped tile at the
//    kNodeTile site; a NodeFailedError offline-blacklists the whole
//    domain, cancels its in-flight attempts and requeues its jobs;
//  * cross-node stealing — an idle worker takes the newest queued job of
//    the longest queue in another live domain, never a domain's last one;
//  * straggler duplication — the watchdog's speculative backup prefers a
//    device in another domain;
//  * journalling — domain k of a multi-node run journals its own commits
//    and row slices to `<write_path>.node<k>`; the whole-run journal is
//    written at interruption and completion.
//
// Everything that happened is reported in MatrixProfileResult::health.
// Invariant (tested): an FP64 run under injected transient faults, device
// loss or node loss produces a bit-identical profile/index to the
// fault-free run, because per-tile results do not depend on where or how
// often a tile was (re)computed — nor on how many nodes there were.
#pragma once

#include "gpusim/device.hpp"
#include "mp/options.hpp"
#include "tsdata/time_series.hpp"

namespace mpsim::gpusim {
class FaultInjector;
}

namespace mpsim::mp {

/// The node level of the fault-domain tree.  One domain without a node
/// injector is the plain single-node run.
struct FaultDomains {
  int nodes = 1;      ///< equal device groups; divides the device count
  bool steal = true;  ///< cross-domain stealing of queued jobs
  /// Node-level injector fired at kNodeTile with the domain as "device"
  /// (node_crash / node_stall / node_slow); nullptr = none.
  gpusim::FaultInjector* injector = nullptr;
};

/// Runs the resilient multi-tile computation on `system`.  Precision is
/// dispatched per tile (escalation can raise individual tiles above
/// config.mode).  A FaultInjector already attached to the system's
/// devices is honoured and its events are folded into the health report.
/// Throws InterruptedError after flushing the journal when a shutdown
/// request (or a kill_after_tiles / kill_after_slices chaos kill) stops
/// the run early.
MatrixProfileResult run_resilient(gpusim::System& system,
                                  const TimeSeries& reference,
                                  const TimeSeries& query,
                                  const MatrixProfileConfig& config,
                                  const FaultDomains& domains = {});

}  // namespace mpsim::mp
