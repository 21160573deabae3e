// Unit tests of the benchmark driver's open-loop generator, percentile
// helper and metric-name rules.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

std::vector<double> evenly(std::size_t n, double gap_s) {
  std::vector<double> due;
  for (std::size_t i = 0; i < n; ++i) due.push_back(double(i) * gap_s);
  return due;
}

TEST(PoissonArrivals, SameSeedSameSchedule) {
  EXPECT_EQ(poisson_arrivals(50.0, 500, 7), poisson_arrivals(50.0, 500, 7));
  EXPECT_NE(poisson_arrivals(50.0, 500, 7), poisson_arrivals(50.0, 500, 8));
}

TEST(PoissonArrivals, AscendingAtTheRate) {
  const auto due = poisson_arrivals(200.0, 10000, 3);
  ASSERT_EQ(due.size(), 10000u);
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_LT(due[i - 1], due[i]);
  EXPECT_GT(due.front(), 0.0);
  // 10000 arrivals at 200/s span about 50 s (a few standard deviations).
  EXPECT_NEAR(due.back(), 50.0, 2.0);
  // Exponential gaps: about 1/e of them exceed the mean gap.
  std::size_t long_gaps = 0;
  for (std::size_t i = 1; i < due.size(); ++i) {
    if (due[i] - due[i - 1] > 1.0 / 200.0) ++long_gaps;
  }
  EXPECT_NEAR(double(long_gaps) / 9999.0, std::exp(-1.0), 0.02);
}

TEST(OpenLoop, SendTimesFollowTheScheduleNotCompletions) {
  // Each request takes 30 ms; arrivals every 20 ms.  A closed loop on one
  // connection would send every 30 ms; with spare connections the open
  // loop sends on schedule.
  const auto due = evenly(12, 0.020);
  const auto timings = run_open_loop(due, 4, [](std::size_t, int) {
    std::this_thread::sleep_for(milliseconds(30));
    return true;
  });
  ASSERT_EQ(timings.size(), due.size());
  for (const RequestTiming& t : timings) {
    EXPECT_GE(t.lag_ms(), 0.0);
    EXPECT_LT(t.lag_ms(), 15.0) << "sent late at due " << t.due_s;
    EXPECT_GE(t.latency_ms(), 29.0);
  }
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // One connection, 20 ms requests, arrivals every 5 ms: requests queue in
  // front of the connection and that wait is part of their latency.
  const auto due = evenly(8, 0.005);
  const auto timings = run_open_loop(due, 1, [](std::size_t, int) {
    std::this_thread::sleep_for(milliseconds(20));
    return true;
  });
  for (std::size_t i = 1; i < timings.size(); ++i) {
    const RequestTiming& t = timings[i];
    EXPECT_GT(t.lag_ms(), 0.0);
    EXPECT_NEAR(t.latency_ms(), (t.done_s - t.due_s) * 1e3, 1e-9);
    EXPECT_GE(t.latency_ms(), t.lag_ms() + 19.0);
  }
  EXPECT_GT(timings.back().latency_ms(), 100.0);  // 8 x 20 ms - 35 ms
}

TEST(OpenLoop, FailuresMissEveryLatencyLimit) {
  const auto due = evenly(20, 0.001);
  const auto timings = run_open_loop(
      due, 2, [](std::size_t i, int) { return i % 5 != 0; });
  std::vector<double> latencies;
  std::size_t failed = 0;
  for (const RequestTiming& t : timings) {
    latencies.push_back(t.latency_ms());
    if (!t.ok) {
      ++failed;
      EXPECT_TRUE(std::isinf(t.latency_ms()));
    }
  }
  EXPECT_EQ(failed, 4u);
  // 4 of 20 failed: the p90 and everything above it is a failure.
  EXPECT_TRUE(std::isinf(percentile(latencies, 0.90, 0).value));
  EXPECT_FALSE(std::isinf(percentile(latencies, 0.75, 0).value));
}

TEST(OpenLoop, AThrowingRequestIsAFailure) {
  const auto timings = run_open_loop(evenly(3, 0.0), 2, [](std::size_t i, int) {
    if (i == 1) throw std::runtime_error("connection reset");
    return true;
  });
  EXPECT_TRUE(timings[0].ok);
  EXPECT_FALSE(timings[1].ok);
  EXPECT_TRUE(timings[2].ok);
}

TEST(OpenLoop, EveryConnectionIsUsedAndEveryRequestSentOnce) {
  const auto due = evenly(40, 0.0);
  std::vector<int> seen(due.size(), 0);
  std::vector<int> per_connection(3, 0);
  std::mutex mutex;
  run_open_loop(due, 3, [&](std::size_t i, int c) {
    std::this_thread::sleep_for(milliseconds(2));
    std::lock_guard lock(mutex);
    ++seen[i];
    ++per_connection[std::size_t(c)];
    return true;
  });
  for (const int n : seen) EXPECT_EQ(n, 1);
  for (const int n : per_connection) EXPECT_GT(n, 0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(double(101 - i));
  EXPECT_EQ(percentile(v, 0.50, 0).value, 50.0);
  EXPECT_EQ(percentile(v, 0.95, 0).value, 95.0);
  EXPECT_EQ(percentile(v, 1.00, 0).value, 100.0);
  EXPECT_EQ(percentile(v, 0.95, 0).beyond, 5u);
  EXPECT_EQ(percentile(v, 0.95, 0).samples, 100u);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p95 needs >= 10 samples past its rank: 199 samples leave 9, 200 leave
  // 10.
  const std::vector<double> v199(199, 1.0), v200(200, 1.0);
  EXPECT_FALSE(percentile(v199, 0.95, 10).valid);
  EXPECT_EQ(percentile(v199, 0.95, 10).beyond, 9u);
  EXPECT_TRUE(percentile(v200, 0.95, 10).valid);
  EXPECT_EQ(percentile(v200, 0.95, 10).beyond, 10u);
  EXPECT_FALSE(percentile({}, 0.5, 0).valid);
}

TEST(Stats, MedianAndMean) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
  EXPECT_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(MetricNames, AcceptsTheAllowedAlphabet) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("mp.row.cells_per_s.fp16c"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, RejectsEverythingElse) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Units, AcceptsTheAllowedAlphabet) {
  EXPECT_TRUE(valid_unit("ms"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("MB/s"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("cells per s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'm')));
}

TEST(Report, RejectsInvalidAndRepeatedNames) {
  Report report;
  EXPECT_THROW(report.add("bad name", "s", 1.0), std::invalid_argument);
  EXPECT_THROW(report.add("ok", "bad unit", 1.0), std::invalid_argument);
  report.add("ok", "s", 1.0);
  EXPECT_THROW(report.add("ok", "s", 2.0), std::invalid_argument);
}

TEST(Report, FailsWhenATableMetricIsMissingOrAnOpFailed) {
  const std::vector<MetricSpec> table = {{"a", "s"}, {"b", "ms"}};
  Report missing;
  missing.op(true);
  missing.add("a", "s", 1.0);
  EXPECT_FALSE(missing.print(table));
  Report wrong_unit;
  wrong_unit.op(true);
  wrong_unit.add("a", "s", 1.0);
  wrong_unit.add("b", "s", 1.0);
  EXPECT_FALSE(wrong_unit.print(table));
  Report failed;
  failed.op(false, "a failing check");
  failed.add("a", "s", 1.0);
  failed.add("b", "ms", 1.0);
  EXPECT_FALSE(failed.print(table));
  Report complete;
  complete.op(true);
  complete.add("a", "s", 1.0);
  complete.add("b", "ms", 1.0);
  EXPECT_TRUE(complete.print(table));
}

TEST(Report, TablesUseValidNamesAndUnitsOnce) {
  for (const auto* table : {&kEndToEndMetrics, &kPerLayerMetrics}) {
    Report report;
    for (const MetricSpec& spec : *table) {
      EXPECT_TRUE(valid_metric_name(spec.name)) << spec.name;
      EXPECT_TRUE(valid_unit(spec.unit)) << spec.name;
      EXPECT_NO_THROW(report.add(spec.name, spec.unit, 1.0)) << spec.name;
    }
  }
}

}  // namespace
}  // namespace perfbench
