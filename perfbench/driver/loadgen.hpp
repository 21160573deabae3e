// Open-loop load generation: a seeded Poisson arrival schedule played
// over a bounded set of connections.
//
// Open loop means send times come from the schedule, never from earlier
// completions: a slow response delays only the connection it occupies.
// When every connection is busy at a request's due time, the request goes
// out late on the first connection to free up, and its latency still
// counts from the due time — so queueing in front of the system is
// charged to the system instead of being hidden (coordinated omission).
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

/// Due times (seconds from the start of the run) of the first `count`
/// arrivals of a Poisson process with `rate_per_s` arrivals per second.
/// A fixed count (rather than a fixed duration) keeps the request mix of a
/// run exact.  The same seed always yields the same schedule.
inline std::vector<double> poisson_arrivals(double rate_per_s,
                                            std::size_t count,
                                            std::uint64_t seed) {
  std::vector<double> due;
  if (!(rate_per_s > 0.0)) return due;
  mpsim::Rng rng(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    due.push_back(t);
  }
  return due;
}

/// Timing of one scheduled request, in seconds from the run start.
struct RequestTiming {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = false;

  /// Latency from the due time; +infinity for a failed request, so a
  /// failure always misses any latency limit.
  double latency_ms() const {
    return ok ? (done_s - due_s) * 1e3
              : std::numeric_limits<double>::infinity();
  }
  /// How late the generator sent the request (a validity check of the
  /// generator, not a property of the system under test).
  double lag_ms() const { return (sent_s - due_s) * 1e3; }
};

/// Plays `due` (ascending) over `connections` worker threads.  `send(i,
/// connection)` performs request i synchronously on that connection and
/// returns whether it succeeded (a throw counts as a failure); it is
/// called from the worker threads.
inline std::vector<RequestTiming> run_open_loop(
    const std::vector<double>& due, int connections,
    const std::function<bool(std::size_t, int)>& send) {
  using Clock = std::chrono::steady_clock;
  std::vector<RequestTiming> timings(due.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<std::thread> workers;
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= due.size()) return;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i])));
        RequestTiming& t = timings[i];
        t.due_s = due[i];
        t.sent_s = since_start();
        try {
          t.ok = send(i, c);
        } catch (...) {
          t.ok = false;  // a throwing request is a failed request
        }
        t.done_s = since_start();
      }
    });
  }
  for (auto& w : workers) w.join();
  return timings;
}

}  // namespace perfbench
