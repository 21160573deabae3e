#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "mp/simd/dispatch.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cells_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"err_mean_abs", "dist"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"tsdata.read_csv_s", "s"},
    {"tsdata.read_csv_mb_per_s", "MB/s"},
    {"mp.staging.convert_s.fp64", "s"},
    {"mp.staging.convert_s.fp32", "s"},
    {"mp.staging.convert_s.fp16", "s"},
    {"mp.staging.convert_s.mixed", "s"},
    {"mp.staging.convert_s.fp16c", "s"},
    {"mp.staging.hit_ratio", "ratio"},
    {"mp.precalc_s", "s"},
    {"mp.tile_s", "s"},
    {"mp.row.cells_per_s.fp64", "1/s"},
    {"mp.row.cells_per_s.fp32", "1/s"},
    {"mp.row.cells_per_s.fp16", "1/s"},
    {"mp.row.cells_per_s.mixed", "1/s"},
    {"mp.row.cells_per_s.fp16c", "1/s"},
    {"mp.merge_s", "s"},
    {"mp.sched.parallelism", "ratio"},
    {"mp.sched.attempts_per_tile", "count"},
    {"thread_pool.dispatches_per_row", "count"},
    {"thread_pool.caller_chunk_share", "%"},
    {"mp.journal.bytes", "B"},
    {"mp.journal.read_s", "s"},
    {"mp.journal.write_s", "s"},
    {"resilient.slice_commits", "count"},
    {"cluster.dispatches_per_tile", "count"},
    {"coordinator.steals", "count"},
    {"cluster.commit_conflict_ratio", "ratio"},
    {"serve.profile_hit_ratio", "ratio"},
    {"serve.input_hit_ratio", "ratio"},
    {"serve.series_hit_ratio", "ratio"},
    {"serve.render_ms", "ms"},
    {"serve.render_mb_per_s", "MB/s"},
    {"serve.service_ms_mean", "ms"},
    {"serve.outside_service_ms", "ms"},
    {"serve.admission.rejected", "count"},
    {"gen.lag_ms_p95", "ms"},
    {"trace_overhead_ratio", "ratio"},
    {"replay.accounted_share", "ratio"},
};

const ModeName kModeNames[5] = {{"FP64", "fp64"},
                                {"FP32", "fp32"},
                                {"FP16", "fp16"},
                                {"Mixed", "mixed"},
                                {"FP16C", "fp16c"}};

void Report::add(const std::string& name, const std::string& unit,
                 double value, std::size_t samples) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("invalid unit '" + unit + "' of " + name);
  }
  if (!metrics_.emplace(name, Entry{unit, value, samples}).second) {
    throw std::invalid_argument("metric '" + name + "' reported twice");
  }
  order_.push_back(name);
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
  }
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

bool Report::print(const std::vector<MetricSpec>& table) const {
  for (const auto& [key, value] : notes_) {
    std::printf("info %s = %s\n", key.c_str(), value.c_str());
  }
  for (const auto& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("metric %-34s %.6g %s (samples=%zu)\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples);
  }
  bool correct = failed_ == 0 && attempted_ > 0;
  std::ostringstream os;
  os.precision(17);
  bool first = true;
  for (const MetricSpec& spec : table) {
    const auto it = metrics_.find(spec.name);
    if (it == metrics_.end() || it->second.unit != spec.unit ||
        !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s missing, non-finite or "
                           "in the wrong unit\n", spec.name);
      correct = false;
      continue;
    }
    os << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
       << it->second.value << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", (unsigned long long)attempted_,
              (unsigned long long)failed_, os.str().c_str());
  std::fflush(stdout);
  return correct;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

void record_host(Report& report) {
  namespace simd = mpsim::mp::simd;
  report.note("host.nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.note("host.hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  report.note("host.cpu_model", cpu_model());
  report.note("host.simd_detected", simd::to_string(simd::detected_level()));
  report.note("host.simd_active", simd::to_string(simd::active_level()));
  report.note("build.type", PERFBENCH_BUILD_TYPE);
  report.note("build.compiler", PERFBENCH_COMPILER);
  report.note("build.cxx_flags", PERFBENCH_CXX_FLAGS);
}

double peak_rss_mb() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Spans::open(const std::string& name, const std::string& job,
                int parent) {
  Span span;
  span.name = name;
  span.job = job;
  span.parent = parent;
  span.start_s = now_s() - epoch_s_;
  span.end_s = span.start_s;
  spans_.push_back(std::move(span));
  return int(spans_.size()) - 1;
}

void Spans::close(int span) {
  spans_.at(std::size_t(span)).end_s = now_s() - epoch_s_;
}

int Spans::add(const std::string& name, const std::string& job,
               double start_s, double end_s, int parent) {
  Span span;
  span.name = name;
  span.job = job;
  span.parent = parent;
  span.start_s = start_s - epoch_s_;
  span.end_s = end_s - epoch_s_;
  spans_.push_back(std::move(span));
  return int(spans_.size()) - 1;
}

double Spans::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.seconds();
  }
  return sum;
}

void Spans::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(17);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \""
        << mpsim::json_escape(s.name) << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << s.start_s * 1e6
        << ", \"dur\": " << s.seconds() * 1e6 << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"job\": \""
        << mpsim::json_escape(s.job) << "\"}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
