// Result reporting of the benchmark driver: the metric tables, the
// operation/check tally, the host record, in-memory spans, and the final
// JSON result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One row of a metric table.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics every timed run (--trace 0) reports, on every workload; the
/// per-workload meaning of each is in perfbench/README.md.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Metrics every traced run (--trace 1) reports, on every workload; a
/// layer a workload bypasses reports 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// The five precision modes of the paper, in report order, with the
/// lower-case suffix used in metric names.
struct ModeName {
  const char* mode;    ///< as parse_precision_mode accepts it
  const char* suffix;  ///< metric-name suffix
};
extern const ModeName kModeNames[5];

class Report {
 public:
  /// Records a metric; throws on an invalid name or unit, or a name used
  /// twice.  `samples` is the number of measurements behind the value.
  void add(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 1);
  bool has(const std::string& name) const;

  /// Counts one operation (job, request or output check).
  void op(bool ok, const std::string& what = "");
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Free-form `key = value` record printed next to the result.
  void note(const std::string& key, const std::string& value);

  /// Prints the record and every metric (name, value, unit, samples) as
  /// human-readable lines, then the JSON result line holding exactly the
  /// metrics of `table`.  Returns false (and reports correct=false) when
  /// a metric of the table is missing or not finite, or an operation
  /// failed.
  bool print(const std::vector<MetricSpec>& table) const;

 private:
  struct Entry {
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host record: CPU count and model, SIMD level, compiler and flags.
void record_host(Report& report);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Seconds on a monotonic clock (arbitrary epoch).
double now_s();

/// In-memory spans of the traced run: name, start, end, parent and the
/// job or request they belong to.  Written once, at the end.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string job;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    double seconds() const { return end_s - start_s; }
  };

  int open(const std::string& name, const std::string& job, int parent = -1);
  void close(int span);
  /// Records a finished span from two now_s() readings.
  int add(const std::string& name, const std::string& job, double start_s,
          double end_s, int parent = -1);
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;

  /// Chrome-tracing JSON (load in Perfetto); parents and jobs in args.
  void write_chrome_json(const std::string& path) const;

 private:
  double epoch_s_ = now_s();
  std::vector<Span> spans_;
};

/// RAII span; inert when `spans` is null (an untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const std::string& name, const std::string& job,
             int parent = -1)
      : spans_(spans), id_(spans ? spans->open(name, job, parent) : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Spans* spans_;
  int id_;
};

}  // namespace perfbench
