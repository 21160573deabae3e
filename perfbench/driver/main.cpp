// mpsim_perfbench — the repository's seeded benchmark driver.
//
//   mpsim_perfbench --workload=batch_modes|wide_elastic|serve_mixed
//                   --seed=N --seconds=S --trace=0|1
//                   --work-dir=DIR [--trace-out=FILE.json]
//
// Generates the workload's inputs from the seed into DIR, measures its
// user path for S seconds (--trace=0: end-to-end metrics) or runs the
// traced variant (--trace=1: per-layer metrics, spans to --trace-out),
// checks every output, and prints one JSON result as the last line of
// stdout.  perfbench/run.py builds and runs it; see perfbench/README.md.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    mpsim::CliArgs args(argc, argv);
    args.check_known(
        {"workload", "seed", "seconds", "trace", "work-dir", "trace-out"});
    RunOptions options;
    options.workload = args.get_string("workload", "");
    options.seed = std::uint64_t(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.work_dir = args.get_string("work-dir", "");
    options.trace_path = args.get_string("trace-out", "");
    if (options.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
    if (options.trace && options.trace_path.empty()) {
      options.trace_path = options.work_dir + "/trace.json";
    }
    if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    std::filesystem::create_directories(options.work_dir);

    Report report;
    record_host(report);
    report.note("workload", options.workload);
    report.note("seed", std::to_string(options.seed));
    if (options.workload == "batch_modes") {
      run_batch_modes(options, report);
    } else if (options.workload == "wide_elastic") {
      run_wide_elastic(options, report);
    } else if (options.workload == "serve_mixed") {
      run_serve_mixed(options, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "' (batch_modes|wide_elastic|serve_mixed)");
    }
    if (options.trace) {
      report_bypassed_layers(report);
      report.note("trace", options.trace_path);
    }
    report.print(options.trace ? kPerLayerMetrics : kEndToEndMetrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpsim_perfbench: %s\n", e.what());
    return 1;
  }
}
