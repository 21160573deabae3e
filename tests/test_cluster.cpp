// Tests for the multi-node cluster extension: functional equivalence with
// single-node execution, the scaling behaviour of the model, and elastic
// execution over node fault domains (cross-node recovery, stealing and
// grid/node-count-changing resume — all bit-identical to one node).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cluster/coordinator.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "gpusim/spec.hpp"
#include "mp/matrix_profile.hpp"
#include "mp/model.hpp"
#include "tsdata/synthetic.hpp"

namespace mpsim::cluster {
namespace {

SyntheticDataset small_dataset() {
  SyntheticSpec spec;
  spec.segments = 256;
  spec.dims = 3;
  spec.window = 16;
  spec.injections_per_dim = 1;
  return make_synthetic_dataset(spec);
}

TEST(Cluster, MultiNodeMatchesSingleNodeResults) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 16;
  config.devices = 2;

  ElasticClusterConfig elastic;
  elastic.nodes = 1;
  const auto one = compute_matrix_profile_elastic(data.reference, data.query,
                                                  config, elastic);
  elastic.nodes = 4;
  const auto four = compute_matrix_profile_elastic(data.reference,
                                                   data.query, config,
                                                   elastic);
  EXPECT_EQ(one.profile, four.profile);
  EXPECT_EQ(one.index, four.index);
}

TEST(Cluster, ComputeTimeShrinksWithNodes) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 16;
  config.devices = 2;

  // Stealing off: the modelled makespan groups tiles by the device that
  // ran them, so it is only deterministic under the static assignment.
  ElasticClusterConfig elastic;
  elastic.steal = false;
  elastic.nodes = 1;
  const auto one = compute_matrix_profile_elastic(data.reference, data.query,
                                                  config, elastic);
  elastic.nodes = 4;
  const auto four = compute_matrix_profile_elastic(data.reference,
                                                   data.query, config,
                                                   elastic);
  EXPECT_LT(four.modeled_device_seconds, one.modeled_device_seconds * 0.5);

  // ...but only multi-node runs pay network time.
  mp::ModelConfig model;
  model.spec = gpusim::a100();
  model.n_r = data.reference.segment_count(16);
  model.n_q = data.query.segment_count(16);
  model.dims = data.reference.dims();
  model.window = 16;
  model.tiles = 16;
  model.devices = 2;
  EXPECT_DOUBLE_EQ(mp::model_cluster(model, 1).network_seconds, 0.0);
  EXPECT_GT(mp::model_cluster(model, 4).network_seconds, 0.0);
}

/// A Raven-like cluster node: 4 A100s, n = 2^16 at d = m = 2^6.
mp::ModelConfig raven_model(std::size_t n, int tiles) {
  mp::ModelConfig model;
  model.spec = gpusim::a100();
  model.n_r = n;
  model.n_q = n;
  model.dims = 1 << 6;
  model.window = 1 << 6;
  model.tiles = tiles;
  model.devices = 4;
  return model;
}

TEST(ClusterModel, NearLinearScalingAtPaperScale) {
  const auto model = raven_model(1 << 16, 64);
  const auto one = mp::model_cluster(model, 1);
  const auto four = mp::model_cluster(model, 4);

  const double speedup = one.total_seconds() / four.total_seconds();
  EXPECT_GT(speedup, 3.0);   // near-linear
  EXPECT_LE(speedup, 4.05);  // no super-linear nonsense
}

TEST(ClusterModel, NetworkCostGrowsLogarithmically) {
  const auto model = raven_model(1 << 16, 64);
  const double net2 = mp::model_cluster(model, 2).network_seconds;
  const double net8 = mp::model_cluster(model, 8).network_seconds;
  // Binomial tree: 1 round at 2 nodes, 3 rounds at 8.
  EXPECT_NEAR(net8 / net2, 3.0, 0.01);
}

TEST(ClusterModel, InterconnectBandwidthMatters) {
  const auto model = raven_model(1 << 18, 64);
  mp::InterconnectSpec slow;
  slow.bandwidth_gbs = 1.0;  // 10 GbE-class
  const auto f = mp::model_cluster(model, 8);
  const auto s = mp::model_cluster(model, 8, slow);
  EXPECT_GT(s.network_seconds, f.network_seconds * 10.0);
  EXPECT_DOUBLE_EQ(s.compute_seconds, f.compute_seconds);
}

TEST(Cluster, ValidatesConfiguration) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  ElasticClusterConfig elastic;
  elastic.nodes = 2;
  config.devices = 0;  // a node needs at least one device
  EXPECT_THROW(compute_matrix_profile_elastic(data.reference, data.query,
                                              config, elastic),
               Error);
}

// ---------------------------------------------------------------------
// Elastic runs: simulated *nodes* as fault domains of the one scheduler.
// The hard invariant everywhere: bits identical to the single-node run.
// ---------------------------------------------------------------------

TEST(ElasticCoordinator, MatchesSingleNodeBitsAllModesBothPaths) {
  const auto data = small_dataset();
  for (const PrecisionMode mode : kAllPrecisionModes) {
    mp::MatrixProfileConfig config;
    config.window = 16;
    config.mode = mode;
    config.tiles = 8;
    config.devices = 2;

    const auto one =
        mp::compute_matrix_profile(data.reference, data.query, config);

    ElasticClusterConfig elastic;
    elastic.nodes = 3;  // uneven split across the 4x2 grid
    const auto three = compute_matrix_profile_elastic(
        data.reference, data.query, config, elastic);
    EXPECT_EQ(three.profile, one.profile) << to_string(mode);
    EXPECT_EQ(three.index, one.index) << to_string(mode);
  }
}

TEST(ElasticCoordinator, StealOffStillMatchesSingleNode) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  ElasticClusterConfig elastic;
  elastic.nodes = 2;
  elastic.steal = false;
  const auto result = compute_matrix_profile_elastic(
      data.reference, data.query, config, elastic);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
  EXPECT_EQ(result.health.node_steals, 0);
}

TEST(ElasticCoordinator, NodeCrashRecoversBitIdentically) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  ElasticClusterConfig elastic;
  elastic.nodes = 3;
  elastic.node_faults = "seed=11,node_crash@1:at=1";
  const auto result = compute_matrix_profile_elastic(
      data.reference, data.query, config, elastic);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
  EXPECT_EQ(result.health.node_crashes, 1);
  EXPECT_TRUE(result.health.degraded);
  bool saw_crash_event = false;
  for (const auto& event : result.health.events) {
    if (event.kind == mp::RunEvent::Kind::kNodeCrashed) {
      saw_crash_event = true;
      EXPECT_EQ(event.device, 1);  // the event's device slot holds the node
    }
  }
  EXPECT_TRUE(saw_crash_event);
}

TEST(ElasticCoordinator, NodeCrashFiresOnEveryRepeat) {
  // Stealing must never drain a node before it starts a tile of its own:
  // node 1's first tile start is where node_crash@1:at=1 fires, so the
  // crash has to happen on every run, not just on lucky schedules.
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  ElasticClusterConfig elastic;
  elastic.nodes = 3;
  elastic.node_faults = "seed=11,node_crash@1:at=1";
  for (int repeat = 0; repeat < 50; ++repeat) {
    const auto result = compute_matrix_profile_elastic(
        data.reference, data.query, config, elastic);
    ASSERT_EQ(result.health.node_crashes, 1) << "repeat " << repeat;
    ASSERT_EQ(result.profile, one.profile) << "repeat " << repeat;
    ASSERT_EQ(result.index, one.index) << "repeat " << repeat;
  }
}

TEST(ElasticCoordinator, SlowNodeIsCoveredByStealOrDuplicate) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  ElasticClusterConfig elastic;
  elastic.nodes = 2;
  elastic.node_faults = "seed=13,node_slow@0:every=1:ms=20";
  const auto result = compute_matrix_profile_elastic(
      data.reference, data.query, config, elastic);
  EXPECT_EQ(result.profile, one.profile);
  EXPECT_EQ(result.index, one.index);
}

TEST(ElasticCoordinator, KillMidRunResumesOnDifferentNodeCount) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;
  const auto one =
      mp::compute_matrix_profile(data.reference, data.query, config);

  const std::string ckpt = testing::TempDir() + "mpsim_elastic_resume.ckpt";
  config.checkpoint.write_path = ckpt;
  config.checkpoint.kill_after_tiles = 3;
  ElasticClusterConfig elastic;
  elastic.nodes = 4;
  clear_shutdown();
  try {
    const auto raced = compute_matrix_profile_elastic(
        data.reference, data.query, config, elastic);
    // The kill raced completion — acceptable, the journal is complete.
    EXPECT_EQ(raced.profile, one.profile);
  } catch (const InterruptedError& e) {
    EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos);
  }
  clear_shutdown();

  // Resume on 2 nodes instead of 4: journalled slices (base journal plus
  // any .nodeK side journals) re-key onto the new fleet.
  config.checkpoint.kill_after_tiles = 0;
  config.checkpoint.write_path.clear();
  config.checkpoint.resume_path = ckpt;
  elastic.nodes = 2;
  const auto resumed = compute_matrix_profile_elastic(
      data.reference, data.query, config, elastic);
  EXPECT_EQ(resumed.profile, one.profile);
  EXPECT_EQ(resumed.index, one.index);

  // ... and on a *different grid* with a different node count: the same
  // journal restores whatever still fits and recomputes the rest, with
  // the bits of the clean run under the new grid.
  mp::MatrixProfileConfig regrid = config;
  regrid.tiles = 4;
  regrid.checkpoint.resume_path = ckpt;
  mp::MatrixProfileConfig regrid_clean = regrid;
  regrid_clean.checkpoint.resume_path.clear();
  const auto clean4 = mp::compute_matrix_profile(data.reference, data.query,
                                                 regrid_clean);
  elastic.nodes = 3;
  const auto regridded = compute_matrix_profile_elastic(
      data.reference, data.query, regrid, elastic);
  EXPECT_EQ(regridded.profile, clean4.profile);
  EXPECT_EQ(regridded.index, clean4.index);

  for (int node = 0; node < 4; ++node) {
    std::remove((ckpt + ".node" + std::to_string(node)).c_str());
  }
  std::remove(ckpt.c_str());
}

TEST(ElasticCoordinator, CountersAreAdditiveOnTheMetricsSchema) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 8;
  config.devices = 2;

  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  ElasticClusterConfig elastic;
  elastic.nodes = 2;
  elastic.steal = false;
  const auto result = compute_matrix_profile_elastic(
      data.reference, data.query, config, elastic);
  EXPECT_FALSE(result.profile.empty());

  // Fault-free, steal off, watchdog off: the schedule is deterministic,
  // so the new counters are exactly pinned (see scripts/check_perf.sh).
  EXPECT_EQ(registry.counter("coordinator.tiles_dispatched").value(), 8u);
  EXPECT_EQ(registry.counter("node.commits").value(), 8u);
  EXPECT_EQ(registry.counter("node.commit_conflicts").value(), 0u);
  EXPECT_EQ(registry.counter("coordinator.steals").value(), 0u);
  EXPECT_EQ(registry.counter("coordinator.duplicates").value(), 0u);
  EXPECT_EQ(registry.counter("coordinator.node_crashes").value(), 0u);
  EXPECT_EQ(registry.gauge("coordinator.nodes").value(), 2.0);
  registry.set_enabled(false);
  registry.reset();
}

TEST(ElasticCoordinator, NodeLifecycleSpansAppearInTheTimeline) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  config.tiles = 4;

  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  ElasticClusterConfig elastic;
  elastic.nodes = 2;
  compute_matrix_profile_elastic(data.reference, data.query, config,
                                 elastic);
  const std::string trace =
      testing::TempDir() + "mpsim_elastic_trace.json";
  registry.timeline().write_chrome_json(trace);
  std::ifstream in(trace);
  const std::string json{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"node 1\""), std::string::npos);
  std::remove(trace.c_str());
  registry.set_enabled(false);
  registry.reset();
}

TEST(ElasticCoordinator, ValidatesNodeCount) {
  const auto data = small_dataset();
  mp::MatrixProfileConfig config;
  config.window = 16;
  ElasticClusterConfig elastic;
  elastic.nodes = 0;
  EXPECT_THROW(compute_matrix_profile_elastic(data.reference, data.query,
                                              config, elastic),
               ConfigError);
  elastic.nodes = 65;  // > the journal suffix scan bound
  EXPECT_THROW(compute_matrix_profile_elastic(data.reference, data.query,
                                              config, elastic),
               ConfigError);
}

}  // namespace
}  // namespace mpsim::cluster
