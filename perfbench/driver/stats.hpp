// Order statistics and metric-name rules of the benchmark driver.
//
// Header-only so the benchmark's own unit tests (perfbench/tests) check
// exactly the code the driver runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile with the evidence behind it.
struct Percentile {
  double value = std::numeric_limits<double>::quiet_NaN();
  std::size_t samples = 0;  ///< all samples, failures included
  std::size_t beyond = 0;   ///< samples strictly above the percentile's rank
  bool valid = false;       ///< enough samples beyond (see percentile())
};

/// Nearest-rank q-quantile (q in (0, 1]) of `samples`.  Failed operations
/// enter as +infinity, so they always count as missing any latency limit.
/// The result is `valid` only when at least `min_beyond` samples lie
/// beyond its rank: a p95 needs >= 10 samples past it (n >= 200) before
/// it says anything about the tail.
inline Percentile percentile(std::vector<double> samples, double q,
                             std::size_t min_beyond) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || !(q > 0.0) || q > 1.0) return p;
  const auto n = samples.size();
  auto rank = std::size_t(std::ceil(q * double(n)));  // 1-based
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + std::ptrdiff_t(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = n - rank;
  p.valid = p.beyond >= min_beyond;
  return p;
}

/// Median (mean of the two middle values for even counts); NaN if empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / double(values.size());
}

/// a / b, or 0 when b is 0 (a layer the run never reached).
inline double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Geometric mean of positive values: the summary of errors that span
/// orders of magnitude across precision modes (FP32 ~1e-5, Mixed ~1e-2),
/// so no single mode dominates it.  NaN if empty or any value <= 0.
inline double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return std::numeric_limits<double>::quiet_NaN();
    log_sum += std::log(v);
  }
  return std::exp(log_sum / double(values.size()));
}

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: 1..16 characters of [A-Za-z0-9_/%.-].
inline bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
