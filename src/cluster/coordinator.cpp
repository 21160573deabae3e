#include "cluster/coordinator.hpp"

#include "common/error.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/spec.hpp"
#include "mp/resilient.hpp"

namespace mpsim::cluster {

mp::MatrixProfileResult compute_matrix_profile_elastic(
    const TimeSeries& reference, const TimeSeries& query,
    const mp::MatrixProfileConfig& config,
    const ElasticClusterConfig& cluster) {
  if (cluster.nodes < 1) {
    throw ConfigError("nodes must be >= 1");
  }
  if (cluster.nodes > 64) {
    throw ConfigError(
        "nodes must be <= 64 (resume probes that many side journals)");
  }
  mp::validate_config(reference, query, config);

  gpusim::FaultInjector node_injector;
  mp::FaultDomains domains;
  domains.nodes = cluster.nodes;
  domains.steal = cluster.steal;
  if (!cluster.node_faults.empty()) {
    node_injector.configure(cluster.node_faults);
    domains.injector = &node_injector;
  }

  // One fleet of nodes × devices: the per-device worker share is the
  // same as `nodes` fleets of `devices` each would get.
  gpusim::MachineSpec spec = gpusim::spec_by_name(config.machine);
  if (config.device_memory_bytes != 0) {
    spec.memory_capacity_bytes = config.device_memory_bytes;
  }
  gpusim::System system(spec, cluster.nodes * config.devices, config.workers);
  system.attach_fault_injector(config.fault_injector);
  return mp::run_resilient(system, reference, query, config, domains);
}

}  // namespace mpsim::cluster
