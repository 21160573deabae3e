// serve_mixed: an in-process serve::Server driven over its unix socket by
// a seeded open-loop Poisson load of cache hits and misses.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "common/rng.hpp"
#include "common/shutdown.hpp"
#include "loadgen.hpp"
#include "mp/cpu_reference.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tsdata/io.hpp"
#include "tsdata/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace mp = mpsim::mp;
namespace serve = mpsim::serve;

constexpr std::size_t kInputSegments[] = {2048, 3072, 4096};
constexpr std::size_t kInputs = 3;
constexpr std::size_t kDims = 2;
constexpr std::size_t kWindow = 64;
constexpr int kTiles = 3;  // tile-parallel, one device per core, one core left
constexpr int kDevices = 3;
constexpr std::size_t kExecutors = 2;
constexpr int kConnections = 4;
/// Offered load: with 4 devices per query a 4-core host saturated near 75
/// requests/s on this mix (queues grew without bound at 80/s); 25/s keeps
/// the queue short.
constexpr double kRatePerS = 25.0;
constexpr std::size_t kMissEvery = 4;  // a quarter of requests miss
constexpr int kSetups = 3;

/// The hot set: repeated configs, one per reduced-precision mode.
struct HotConfig {
  std::size_t input;
  const char* mode;
};
constexpr HotConfig kHot[] = {
    {0, "FP32"}, {1, "FP16"}, {2, "Mixed"}, {0, "FP16C"}};

/// Warm-up queries fill the series, input and staging caches: every input
/// in every storage format (FP64, FP32, binary16).
constexpr const char* kWarmModes[] = {"FP64", "FP32", "FP16"};

std::string query_line(const std::string& csv, std::size_t window,
                       const std::string& mode) {
  return "query --reference=" + csv + " --self-join --window=" +
         std::to_string(window) + " --mode=" + mode + " --tiles=" +
         std::to_string(kTiles) + " --devices=" + std::to_string(kDevices);
}

/// The u-th never-repeated config: cycles inputs, then modes, then
/// windows in [32, 96] without 64 (the warm-up and hot window), so the
/// miss mix is the same in every run.
std::string unique_line(const std::vector<std::string>& inputs,
                        std::size_t u) {
  const std::size_t input = u % kInputs;
  const ModeName& mode = kModeNames[(u / kInputs) % 5];
  std::size_t window = 32 + (u / (kInputs * 5)) % 64;
  if (window >= 64) ++window;
  return query_line(inputs[input], window, mode.mode);
}

/// A client connection speaking the serve protocol.
class Connection {
 public:
  struct Reply {
    bool ok = false;
    bool cached = false;
    std::string payload;
  };

  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + errno_text());
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string what = "connect " + path + ": " + errno_text();
      ::close(fd_);
      throw std::runtime_error(what);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line and reads its framed response.
  Reply request(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send: " + errno_text());
      sent += std::size_t(n);
    }
    std::size_t newline = 0;
    while ((newline = buffer_.find('\n')) == std::string::npos) fill();
    const std::string header = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    Reply reply;
    reply.ok = header.find("\"status\": \"ok\"") != std::string::npos;
    reply.cached = header.find("\"cached\": true") != std::string::npos;
    std::size_t bytes = 0;
    const auto at = header.find("\"bytes\": ");
    if (at != std::string::npos) bytes = std::stoull(header.substr(at + 9));
    while (buffer_.size() < bytes) fill();
    reply.payload = buffer_.substr(0, bytes);
    buffer_.erase(0, bytes);
    return reply;
  }

 private:
  static std::string errno_text() { return std::strerror(errno); }

  void fill() {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed by server");
      buffer_.append(chunk, std::size_t(n));
      return;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// A started server; stopping it drains it over the protocol's shutdown
/// verb and clears the process-wide shutdown flag for the next one.
class RunningServer {
 public:
  explicit RunningServer(const std::string& socket_path)
      : path_(socket_path) {
    serve::ServerOptions options;
    options.unix_socket = socket_path;
    options.executors = kExecutors;
    // Room for every profile a run can store, so hot entries stay cached.
    options.cache_limits.max_profiles = 4096;
    server_ = std::make_unique<serve::Server>(options);
    server_->start();
  }
  ~RunningServer() {
    try {
      stop();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: server stop failed: %s\n", e.what());
    }
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  void stop() {
    if (!server_) return;
    try {
      Connection(path_).request("shutdown");
    } catch (...) {
      mpsim::request_shutdown();
    }
    server_->wait();
    server_.reset();
    mpsim::clear_shutdown();
  }

 private:
  std::string path_;
  std::unique_ptr<serve::Server> server_;
};

/// Pulls one counter / histogram field out of the stats verb's JSON.
double stats_number(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0.0;
  return std::stod(json.substr(at + key.size() + 4));
}

double stats_histogram_mean(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\": {\"count\": ");
  if (at == std::string::npos) return 0.0;
  const double count = std::stod(json.substr(at + key.size() + 14));
  const auto sum_at = json.find("\"sum\": ", at);
  const double sum = std::stod(json.substr(sum_at + 7));
  return count > 0.0 ? sum / count : 0.0;
}

/// FNV-1a digest of a payload: responses are compared by digest and
/// length, so the load generator holds no payload copies (its memory
/// would show in peak_rss_mb).
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= std::uint8_t(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The first response served for a config.
struct Served {
  bool seen = false;
  std::uint64_t digest = 0;
  std::size_t bytes = 0;
};

/// One request of the schedule and what came back.
struct Sent {
  std::size_t config = 0;  ///< index into the distinct configs
  bool cached = false;
};

}  // namespace

void run_serve_mixed(const RunOptions& options, Report& report) {
  const fs::path dir = options.work_dir;
  std::vector<std::string> inputs;
  std::vector<mpsim::TimeSeries> series;
  for (std::size_t i = 0; i < kInputs; ++i) {
    mpsim::SyntheticSpec spec;
    spec.segments = kInputSegments[i];
    spec.dims = kDims;
    spec.window = kWindow;
    spec.seed = options.seed * kInputs + i;
    series.push_back(mpsim::make_synthetic_dataset(spec).reference);
    inputs.push_back((dir / ("input" + std::to_string(i) + ".csv")).string());
    mpsim::write_csv(inputs.back(), series.back());
  }
  const std::string socket_path = (dir / "serve.sock").string();
  const auto input_of = [&](const std::string& path) {
    return std::size_t(std::find(inputs.begin(), inputs.end(), path) -
                       inputs.begin());
  };

  // ---- Set-up: server start to accepting, plus cache warm-up; the
  // last server started serves the load. ----
  std::vector<std::string> warm_lines;
  for (const std::string& csv : inputs) {
    for (const char* mode : kWarmModes) {
      warm_lines.push_back(query_line(csv, kWindow, mode));
    }
  }
  for (const HotConfig& hot : kHot) {
    warm_lines.push_back(query_line(inputs[hot.input], kWindow, hot.mode));
  }
  std::vector<double> setups;
  std::unique_ptr<RunningServer> server;
  const int setup_count = options.trace ? 1 : kSetups;
  for (int i = 0; i < setup_count; ++i) {
    if (server) server->stop();
    const double start = now_s();
    server = std::make_unique<RunningServer>(socket_path);
    Connection warm(socket_path);
    bool ok = warm.request("ping").ok;
    for (const std::string& line : warm_lines) ok &= warm.request(line).ok;
    setups.push_back(now_s() - start);
    report.op(ok, "warm-up request failed");
  }

  // ---- The open-loop load.  Distinct configs are numbered as first
  // seen; each keeps the digest of the first payload served for it. ----
  std::vector<std::string> config_lines;
  std::map<std::string, std::size_t> config_index;
  const auto config_of = [&](const std::string& line) {
    const auto [it, fresh] = config_index.emplace(line, config_lines.size());
    if (fresh) config_lines.push_back(line);
    return it->second;
  };
  std::vector<std::size_t> hot_configs;
  for (const HotConfig& hot : kHot) {
    hot_configs.push_back(
        config_of(query_line(inputs[hot.input], kWindow, hot.mode)));
  }
  std::vector<Served> served;  // by config
  std::mutex served_mutex;
  std::size_t next_unique = 0;
  mpsim::Rng mix(options.seed ^ 0x5e17e5eedULL);

  struct Phase {
    double start_s = 0.0;  ///< now_s() when the schedule started
    std::vector<RequestTiming> timings;
    std::vector<Sent> sent;
  };
  const auto run_phase = [&](double seconds, std::uint64_t stream) {
    Phase phase;
    const auto count = std::size_t(std::llround(kRatePerS * seconds));
    const auto due = poisson_arrivals(
        kRatePerS, count, options.seed * 0x9e3779b97f4a7c15ULL + stream);
    // Exactly a quarter misses, the hits spread evenly over the hot set,
    // in a seeded order: every run of a length sends the same mix.
    std::vector<std::size_t> kinds(count);  // < kHot: hot index; else miss
    for (std::size_t i = 0; i < count; ++i) {
      kinds[i] = i < count / kMissEvery ? std::size(kHot) : i % std::size(kHot);
    }
    for (std::size_t i = count; i > 1; --i) {
      std::swap(kinds[i - 1], kinds[mix.uniform_index(i)]);
    }
    phase.sent.resize(count);
    std::vector<std::string> lines(count);
    for (std::size_t i = 0; i < count; ++i) {
      Sent& s = phase.sent[i];
      s.config = kinds[i] < std::size(kHot)
                     ? hot_configs[kinds[i]]
                     : config_of(unique_line(inputs, next_unique++));
      lines[i] = config_lines[s.config] + " --id=" + std::to_string(stream) +
                 "-" + std::to_string(i);
    }
    served.resize(config_lines.size());
    std::vector<std::unique_ptr<Connection>> connections;
    for (int c = 0; c < kConnections; ++c) {
      connections.push_back(std::make_unique<Connection>(socket_path));
    }
    phase.start_s = now_s();
    phase.timings = run_open_loop(due, kConnections,
                                  [&](std::size_t i, int c) {
      Connection::Reply reply;
      try {
        reply = connections[std::size_t(c)]->request(lines[i]);
      } catch (const std::exception&) {
        return false;
      }
      if (!reply.ok) return false;
      phase.sent[i].cached = reply.cached;
      const std::uint64_t digest = fnv1a(reply.payload);
      std::lock_guard lock(served_mutex);
      Served& first = served[phase.sent[i].config];
      if (!first.seen) {
        first = {true, digest, reply.payload.size()};
        return true;
      }
      // Every repeat serves the same bytes.
      return digest == first.digest && reply.payload.size() == first.bytes;
    });
    return phase;
  };

  Spans spans;
  std::vector<Phase> phases;
  if (!options.trace) {
    phases.push_back(run_phase(options.seconds, 1));
    report.add("peak_rss_mb", "MB", peak_rss_mb());
    report.add("setup_s", "s", median(setups), setups.size());
  } else {
    // Untraced half, then a traced half with the registry on; both halves
    // draw fresh unique configs from the same sequence.
    phases.push_back(run_phase(options.seconds / 2, 1));
    auto& registry = mpsim::MetricsRegistry::global();
    registry.reset();
    registry.set_enabled(true);
    phases.push_back(run_phase(options.seconds / 2, 2));
    const std::string stats = Connection(socket_path).request("stats").payload;
    registry.set_enabled(false);
    const Phase& traced = phases[1];
    for (std::size_t i = 0; i < traced.timings.size(); ++i) {
      const RequestTiming& t = traced.timings[i];
      spans.add("serve.request", "2-" + std::to_string(i),
                traced.start_s + t.due_s, traced.start_s + t.done_s);
    }

    std::vector<double> ok_ms[2], lag_ms;
    for (int p = 0; p < 2; ++p) {
      for (const RequestTiming& t : phases[std::size_t(p)].timings) {
        if (t.ok) ok_ms[p].push_back(t.latency_ms());
        if (p == 1) lag_ms.push_back(t.lag_ms());
      }
    }
    report.add("trace_overhead_ratio", "ratio",
               mean(ok_ms[1]) / mean(ok_ms[0]), ok_ms[1].size());
    const auto hit_ratio = [&](const std::string& cache) {
      const double h = stats_number(stats, "serve." + cache + "_cache.hits");
      const double m = stats_number(stats, "serve." + cache + "_cache.misses");
      return ratio(h, h + m);
    };
    report.add("serve.profile_hit_ratio", "ratio", hit_ratio("profile"));
    report.add("serve.input_hit_ratio", "ratio", hit_ratio("input"));
    report.add("serve.series_hit_ratio", "ratio", hit_ratio("series"));
    report.add("mp.staging.hit_ratio", "ratio",
               ratio(stats_number(stats, "staging.hits"),
                                   stats_number(stats, "staging.hits") +
                                       stats_number(stats, "staging.misses")));
    const double service_ms =
        stats_histogram_mean(stats, "serve.job_seconds") * 1e3;
    report.add("serve.service_ms_mean", "ms", service_ms,
               std::size_t(stats_number(stats, "serve.jobs_completed")));
    report.add("serve.outside_service_ms", "ms",
               mean(ok_ms[1]) - service_ms, ok_ms[1].size());
    report.add("serve.admission.rejected", "count",
               stats_number(stats, "serve.admission.rejected"));
    const auto lag = percentile(lag_ms, 0.95, 0);
    report.add("gen.lag_ms_p95", "ms", lag.value, lag.samples);
  }
  server->stop();

  // ---- Latency and throughput (all phases of the run). ----
  std::vector<double> all_ms, hit_ms, miss_ms;
  std::vector<double> miss_rates;  // cells per second of latency, per miss
  std::size_t failures = 0;
  for (const Phase& phase : phases) {
    for (std::size_t i = 0; i < phase.timings.size(); ++i) {
      const RequestTiming& t = phase.timings[i];
      const Sent& s = phase.sent[i];
      report.op(t.ok, "request " + config_lines[s.config]);
      all_ms.push_back(t.latency_ms());
      if (!t.ok) {
        ++failures;
        continue;
      }
      if (s.cached) {
        hit_ms.push_back(t.latency_ms());
        continue;
      }
      miss_ms.push_back(t.latency_ms());
      const auto request = serve::parse_request(config_lines[s.config]);
      const std::size_t input = input_of(request.reference_path);
      miss_rates.push_back(job_cells(series[input], series[input],
                                     request.config.window) /
                           (t.latency_ms() / 1e3));
    }
  }

  // ---- Output checks: every distinct served profile against a direct
  // computation of the same request, and its error against the FP64 CPU
  // reference (outside every timing). ----
  double render_s = 0.0, render_bytes = 0.0;
  std::size_t rendered = 0;
  std::map<std::string, std::vector<double>> errors;  // by mode
  std::map<std::pair<std::size_t, std::size_t>, mp::CpuReferenceResult>
      fp64;  // by (input, window)
  for (std::size_t c = 0; c < config_lines.size(); ++c) {
    if (!served[c].seen) continue;  // every request for it failed
    const auto request = serve::parse_request(config_lines[c]);
    const std::size_t input = input_of(request.reference_path);
    const auto direct = mpsim::cluster::compute_matrix_profile_elastic(
        series[input], series[input], request.config, {});
    std::string csv;
    {
      ScopedSpan span(options.trace ? &spans : nullptr, "serve.render",
                      config_lines[c]);
      const double start = now_s();
      csv = serve::profile_to_csv(direct);
      render_s += now_s() - start;
    }
    render_bytes += double(csv.size());
    ++rendered;
    report.op(fnv1a(csv) == served[c].digest && csv.size() == served[c].bytes,
              "served bytes differ from a direct computation: " +
                  config_lines[c]);
    const std::string mode = to_string(request.config.mode);
    if (mode == "FP64") continue;
    const auto key = std::make_pair(input, request.config.window);
    if (!fp64.count(key)) {
      mp::CpuReferenceConfig cpu;
      cpu.window = request.config.window;
      cpu.exclusion = request.config.exclusion;
      fp64.emplace(key, mp::compute_matrix_profile_cpu(series[input],
                                                       series[input], cpu));
    }
    errors[mode].push_back(
        mean_abs_error(direct.profile, fp64.at(key).profile));
  }
  std::vector<double> gated_errors;
  for (const auto& [mode, values] : errors) {
    report.note("err_mean_abs." + mode + " (dist, " +
                    std::to_string(values.size()) + " profiles)",
                std::to_string(mean(values)));
    if (gates_error(mode)) gated_errors.push_back(mean(values));
  }

  const auto p95 = percentile(all_ms, 0.95, 10);
  report.note("requests", std::to_string(all_ms.size()) + " (" +
                              std::to_string(hit_ms.size()) + " hits, " +
                              std::to_string(miss_ms.size()) + " misses, " +
                              std::to_string(failures) + " failed)");
  report.note("hit_latency_p50_ms (ms, " + std::to_string(hit_ms.size()) +
                  " hits)",
              std::to_string(percentile(hit_ms, 0.5, 0).value));
  report.note("all_latency_p50_ms (ms, " + std::to_string(all_ms.size()) +
                  " requests)",
              std::to_string(percentile(all_ms, 0.5, 0).value));
  if (options.trace) {
    report.add("serve.render_ms", "ms", ratio(render_s * 1e3, double(rendered)),
               rendered);
    report.add("serve.render_mb_per_s", "MB/s",
               ratio(render_bytes / 1e6, render_s), rendered);
    spans.write_chrome_json(options.trace_path);
    return;
  }
  report.op(p95.valid, "too few requests for a p95 (" +
                           std::to_string(p95.beyond) +
                           " beyond it, need 10)");
  report.add("cells_per_s", "1/s", median(miss_rates), miss_rates.size());
  // The gated latency is the misses' (the compute path behind the queue):
  // a hit's few milliseconds of rendering and thread hand-offs swung with
  // the shared host's load about twice as much as the misses did (quartile
  // spread over ten seeds 0.25 against 0.08-0.12), so hit and all-request
  // medians are printed beside it instead.
  report.add("latency_p50_ms", "ms", percentile(miss_ms, 0.5, 0).value,
             miss_ms.size());
  note_tail_latency(report, all_ms);
  report.add("err_mean_abs", "dist", geometric_mean(gated_errors),
             gated_errors.size());
}

}  // namespace perfbench
