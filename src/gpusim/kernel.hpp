// Kernel-launch API of the simulated device.
//
//  * launch_grid_stride — an embarrassingly parallel kernel over an index
//    space [0, n).  On hardware each logical thread strides by
//    grid*block over the space ("grid-stride loop", §III-A); in the
//    simulator the space is split into contiguous chunks across the
//    device's worker pool, which preserves exactly the per-element
//    computation (there are no inter-element dependencies by contract).
//
//  * record_fused_launch — the ledger record of a logical kernel that a
//    host pass executed as part of a larger fused body (the per-row
//    dist_calc / sort_&_incl_scan / update_mat_prof triple).  The
//    cooperative sort's group barriers (§III-A "coarse-grained
//    synchronization") are not executed; their rounds are a closed form
//    the caller fills in, fed to the roofline model's synchronisation term.
//
// Launches record their KernelCost and modelled time in the device ledger,
// and optionally run asynchronously on a Stream.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/stopwatch.hpp"
#include "gpusim/cancel.hpp"
#include "gpusim/device.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/stream.hpp"

namespace mpsim::gpusim {

/// CUDA-style launch configuration.  The simulator honours it for the
/// modelled occupancy record; functional execution uses the host pool.
struct LaunchConfig {
  std::int64_t grid_size = 64;
  std::int64_t block_size = 1024;

  std::int64_t total_threads() const { return grid_size * block_size; }

  /// The tuned configuration the paper uses on a given machine (§IV:
  /// grid 64 x block 2560 on V100, 64 x 3456 on A100).
  static LaunchConfig tuned_for(const MachineSpec& spec) {
    return LaunchConfig{64, spec.default_thread_count() / 64};
  }

  /// Fraction of the device's resident-thread capacity this configuration
  /// keeps busy.  Under-sized launches starve SMs and sustain a
  /// correspondingly smaller share of the bandwidth/compute roofs —
  /// which is why the paper tunes grid and block sizes to the hardware
  /// (§IV: "these configurations provide the best performance").
  double occupancy(const MachineSpec& spec) const {
    const double capacity = double(spec.resident_thread_capacity());
    if (capacity <= 0.0) return 1.0;
    return std::min(1.0, double(total_threads()) / capacity);
  }
};

namespace detail {

inline void record_launch(Device& device, const std::string& name,
                          const KernelCost& cost, KernelLedger* extra,
                          double measured_seconds) {
  const double seconds = modeled_seconds(device.spec(), cost);
  device.ledger().record(name, cost, seconds, measured_seconds);
  if (extra != nullptr) {
    extra->record(name, cost, seconds, measured_seconds);
  }
}

}  // namespace detail

/// Validates that a cooperative kernel's per-group scratchpad fits the
/// device's shared memory: groups resident per SM = resident threads /
/// lanes, all holding their buffers simultaneously.  Throws like a failed
/// CUDA launch otherwise.  The engine's row pipeline runs the sort on the
/// host but models (and must reject) the same kernel.
inline void validate_group_shared_mem(const Device& device,
                                      const std::string& name,
                                      std::int64_t lane_count,
                                      std::size_t shared_bytes_per_group) {
  if (shared_bytes_per_group == 0) return;
  const auto& spec = device.spec();
  const std::size_t groups_per_sm = std::max<std::size_t>(
      1, std::size_t(spec.max_threads_per_sm) /
             std::size_t(std::max<std::int64_t>(1, lane_count)));
  const std::size_t needed = groups_per_sm * shared_bytes_per_group;
  MPSIM_CHECK(needed <= spec.shared_mem_per_sm_bytes,
              "cooperative kernel '"
                  << name << "' needs " << needed
                  << " bytes of shared memory per SM but " << spec.name
                  << " provides " << spec.shared_mem_per_sm_bytes
                  << "; reduce the group size or dimensionality");
}

/// Records a logical kernel launch that was executed as part of a fused
/// host pass rather than through launch_grid_stride: the ledger entry
/// (modeled seconds from `cost`, measured share of the fused pass's wall
/// clock) has the shape of a standalone launch, so perf-model figures and
/// metrics/trace spans keep one record per logical kernel.
/// `cost.barrier_rounds` must be pre-filled by the caller for cooperative
/// kernels (the fused pass runs no barriers to measure).
inline void record_fused_launch(Device& device, const std::string& name,
                                const LaunchConfig& config, KernelCost cost,
                                KernelLedger* extra_ledger,
                                double measured_seconds) {
  cost.occupancy = config.occupancy(device.spec());
  detail::record_launch(device, name, cost, extra_ledger, measured_seconds);
}

/// Launches an embarrassingly parallel kernel over [0, n).
/// `body(begin, end)` processes a contiguous chunk; it is invoked
/// concurrently from the device pool.  If `stream` is non-null, the launch
/// is enqueued asynchronously; otherwise it runs synchronously.
/// `extra_ledger` (optional) additionally receives the launch record —
/// the multi-tile scheduler uses it for per-tile makespan accounting.
/// `cancel` (optional) is polled when the launch's work starts: a
/// cancelled attempt unwinds with CancelledError instead of executing.
inline void launch_grid_stride(
    Device& device, Stream* stream, const std::string& name,
    LaunchConfig config, std::int64_t n, KernelCost cost,
    std::function<void(std::int64_t, std::int64_t)> body,
    KernelLedger* extra_ledger = nullptr,
    const CancellationToken* cancel = nullptr) {
  cost.occupancy = config.occupancy(device.spec());
  auto run = [&device, name, cost, n, body = std::move(body), extra_ledger,
              cancel] {
    if (cancel != nullptr) cancel->poll(name.c_str());
    device.fault_point(FaultSite::kKernelLaunch, name, cancel);
    Stopwatch watch;
    device.pool().parallel_for(
        std::size_t(n), [&body](std::size_t begin, std::size_t end) {
          body(std::int64_t(begin), std::int64_t(end));
        });
    detail::record_launch(device, name, cost, extra_ledger, watch.seconds());
  };
  if (stream != nullptr) {
    stream->enqueue(std::move(run));
  } else {
    run();
  }
}

/// Models (and performs) a host->device copy of `count` elements.
template <typename T>
void async_copy_h2d(Device& device, Stream* stream, const T* host,
                    DeviceBuffer<T>& dst, std::size_t count,
                    KernelLedger* extra_ledger = nullptr,
                    const CancellationToken* cancel = nullptr) {
  auto run = [&device, host, &dst, count, extra_ledger, cancel] {
    if (cancel != nullptr) cancel->poll("memcpy_h2d");
    device.fault_point(FaultSite::kCopyH2D, "memcpy_h2d", cancel);
    MPSIM_CHECK(count <= dst.size(), "h2d copy overruns device buffer");
    std::copy(host, host + count, dst.data());
    const auto bytes = std::int64_t(count * sizeof(T));
    KernelCost cost;
    cost.bytes_written = bytes;
    const double seconds = modeled_copy_seconds(device.spec(), bytes);
    device.ledger().record("memcpy_h2d", cost, seconds);
    if (extra_ledger != nullptr) {
      extra_ledger->record("memcpy_h2d", cost, seconds);
    }
  };
  if (stream != nullptr) {
    stream->enqueue(std::move(run));
  } else {
    run();
  }
}

/// Models (and performs) a device->host copy of `count` elements.
template <typename T>
void async_copy_d2h(Device& device, Stream* stream, const DeviceBuffer<T>& src,
                    T* host, std::size_t count,
                    KernelLedger* extra_ledger = nullptr,
                    const CancellationToken* cancel = nullptr) {
  auto run = [&device, &src, host, count, extra_ledger, cancel] {
    if (cancel != nullptr) cancel->poll("memcpy_d2h");
    device.fault_point(FaultSite::kCopyD2H, "memcpy_d2h", cancel);
    MPSIM_CHECK(count <= src.size(), "d2h copy overruns device buffer");
    std::copy(src.data(), src.data() + count, host);
    const auto bytes = std::int64_t(count * sizeof(T));
    KernelCost cost;
    cost.bytes_read = bytes;
    const double seconds = modeled_copy_seconds(device.spec(), bytes);
    device.ledger().record("memcpy_d2h", cost, seconds);
    if (extra_ledger != nullptr) {
      extra_ledger->record("memcpy_d2h", cost, seconds);
    }
  };
  if (stream != nullptr) {
    stream->enqueue(std::move(run));
  } else {
    run();
  }
}

}  // namespace mpsim::gpusim
