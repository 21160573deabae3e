// Tests for the GPU execution substrate: device memory accounting,
// streams (ordering, concurrency, error capture), kernel launches and the
// cooperative kernels' shared-memory check.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/spec.hpp"
#include "gpusim/stream.hpp"

namespace mpsim::gpusim {
namespace {

MachineSpec tiny_spec(std::size_t capacity_bytes) {
  MachineSpec spec = a100();
  spec.memory_capacity_bytes = capacity_bytes;
  return spec;
}

TEST(DeviceMemory, TracksAllocationsAndPeak) {
  Device dev(tiny_spec(1024), 0, 1);
  {
    DeviceBuffer<double> a(dev, 64);  // 512 bytes
    EXPECT_EQ(dev.bytes_in_use(), 512u);
    {
      DeviceBuffer<double> b(dev, 32);  // 256 bytes
      EXPECT_EQ(dev.bytes_in_use(), 768u);
    }
    EXPECT_EQ(dev.bytes_in_use(), 512u);
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 768u);
}

TEST(DeviceMemory, ThrowsOnCapacityExhaustion) {
  Device dev(tiny_spec(1024), 0, 1);
  DeviceBuffer<double> a(dev, 100);  // 800 bytes
  EXPECT_THROW(DeviceBuffer<double>(dev, 100), DeviceMemoryError);
  // The failed allocation must not leak accounting.
  EXPECT_EQ(dev.bytes_in_use(), 800u);
}

TEST(DeviceMemory, MoveTransfersOwnership) {
  Device dev(tiny_spec(4096), 0, 1);
  DeviceBuffer<int> a(dev, 16);
  a[3] = 42;
  DeviceBuffer<int> b = std::move(a);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(dev.bytes_in_use(), 16 * sizeof(int));
  b = DeviceBuffer<int>(dev, 8);
  EXPECT_EQ(dev.bytes_in_use(), 8 * sizeof(int));
}

TEST(Stream, PreservesFifoOrder) {
  Device dev(a100(), 0, 1);
  Stream stream(dev);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    stream.enqueue([&order, i] { order.push_back(i); });
  }
  stream.synchronize();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Stream, RethrowsTaskErrorOnSynchronize) {
  Device dev(a100(), 0, 1);
  Stream stream(dev);
  std::atomic<bool> later_ran{false};
  stream.enqueue([] { throw Error("async failure"); });
  stream.enqueue([&] { later_ran = true; });
  EXPECT_THROW(stream.synchronize(), Error);
  EXPECT_TRUE(later_ran.load());  // queue keeps draining after an error
  stream.synchronize();           // error consumed; second sync is clean
}

TEST(Stream, FirstOfSeveralErrorsWins) {
  // Two failing tasks before synchronize: the *first* stored exception is
  // what the caller sees (CUDA-style sticky error), tasks after a failure
  // still run, and consuming the error leaves the stream clean.
  Device dev(a100(), 0, 1);
  Stream stream(dev);
  std::atomic<bool> later_ran{false};
  stream.enqueue([] { throw Error("first failure"); });
  stream.enqueue([] { throw Error("second failure"); });
  stream.enqueue([&] { later_ran = true; });
  try {
    stream.synchronize();
    FAIL() << "synchronize must rethrow the stored error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "first failure");
  }
  EXPECT_TRUE(later_ran.load());
  EXPECT_NO_THROW(stream.synchronize());
  // The stream remains usable for fresh work — and a fresh failure is
  // reported as such, not mixed up with the consumed ones.
  stream.enqueue([] { throw Error("third failure"); });
  try {
    stream.synchronize();
    FAIL() << "synchronize must rethrow the new error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "third failure");
  }
}

TEST(Stream, ConcurrentStreamsMakeProgress) {
  Device dev(a100(), 0, 2);
  StreamPool pool(dev, 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.next().enqueue([&done] { done.fetch_add(1); });
  }
  pool.synchronize_all();
  EXPECT_EQ(done.load(), 32);
}

TEST(KernelLaunch, GridStrideCoversIndexSpace) {
  Device dev(a100(), 0, 2);
  std::vector<std::atomic<int>> hits(10000);
  launch_grid_stride(dev, nullptr, "cover", LaunchConfig{}, 10000, KernelCost{},
                     [&](std::int64_t b, std::int64_t e) {
                       for (auto i = b; i < e; ++i) {
                         hits[std::size_t(i)].fetch_add(1);
                       }
                     });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(dev.ledger().stats("cover").launches, 1);
}

TEST(KernelLaunch, AsyncOnStreamRunsAfterSynchronize) {
  Device dev(a100(), 0, 1);
  Stream stream(dev);
  std::atomic<long> sum{0};
  launch_grid_stride(dev, &stream, "sum", LaunchConfig{}, 1000, KernelCost{},
                     [&](std::int64_t b, std::int64_t e) {
                       long local = 0;
                       for (auto i = b; i < e; ++i) local += i;
                       sum.fetch_add(local);
                     });
  stream.synchronize();
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(KernelLaunch, SharedMemoryOverCommitIsRejected) {
  // A cooperative kernel whose resident groups need more scratchpad than
  // an SM provides must fail at launch, like CUDA would.
  Device dev(a100(), 0, 1);
  // lanes=32 -> 64 resident groups/SM; 64 * 8 KiB = 512 KiB > 164 KiB.
  EXPECT_THROW(validate_group_shared_mem(dev, "too-big", 32,
                                         std::size_t(8) << 10),
               Error);
  // A modest footprint is fine, and so is none at all.
  EXPECT_NO_THROW(validate_group_shared_mem(dev, "fits", 32, 1024));
  EXPECT_NO_THROW(validate_group_shared_mem(dev, "none", 32, 0));
}

TEST(Copies, RoundTripH2DandD2H) {
  Device dev(a100(), 0, 1);
  std::vector<double> host(256);
  std::iota(host.begin(), host.end(), 0.0);
  DeviceBuffer<double> buf(dev, 256);
  async_copy_h2d(dev, nullptr, host.data(), buf, 256);
  std::vector<double> back(256, -1.0);
  async_copy_d2h(dev, nullptr, buf, back.data(), 256);
  EXPECT_EQ(back, host);
  EXPECT_EQ(dev.ledger().stats("memcpy_h2d").cost.bytes_written,
            std::int64_t(256 * sizeof(double)));
}

TEST(Copies, OverrunIsRejected) {
  Device dev(a100(), 0, 1);
  std::vector<double> host(10);
  DeviceBuffer<double> buf(dev, 4);
  EXPECT_THROW(async_copy_h2d(dev, nullptr, host.data(), buf, 10), Error);
}

TEST(System, DividesWorkersAcrossDevices) {
  System sys(v100(), 4, 8);
  EXPECT_EQ(sys.device_count(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sys.device(i).pool().worker_count(), 2u);
    EXPECT_EQ(sys.device(i).index(), i);
  }
}

TEST(System, AtLeastOneWorkerPerDevice) {
  System sys(v100(), 8, 2);
  for (int i = 0; i < 8; ++i) {
    EXPECT_GE(sys.device(i).pool().worker_count(), 1u);
  }
}

TEST(LaunchConfig, TunedMatchesPaperThreadCounts) {
  // §IV/V-A: 163,840 threads on V100, 221,184 on A100.
  EXPECT_EQ(LaunchConfig::tuned_for(v100()).total_threads(), 163840);
  EXPECT_EQ(LaunchConfig::tuned_for(a100()).total_threads(), 221184);
}

TEST(ExtraLedger, ReceivesLaunchRecords) {
  Device dev(a100(), 0, 1);
  KernelLedger tile_ledger;
  KernelCost cost;
  cost.bytes_read = 1 << 20;
  launch_grid_stride(dev, nullptr, "k", LaunchConfig{}, 16, cost,
                     [](std::int64_t, std::int64_t) {}, &tile_ledger);
  EXPECT_EQ(tile_ledger.stats("k").launches, 1);
  EXPECT_DOUBLE_EQ(tile_ledger.stats("k").modeled_seconds,
                   dev.ledger().stats("k").modeled_seconds);
}

}  // namespace
}  // namespace mpsim::gpusim
