// Shared timing helpers for the bench executables, built on
// common::Stopwatch so the benches and the library agree on one clock.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/stopwatch.hpp"

namespace netshare::bench {

// Runs fn repeatedly until ~min_seconds of wall clock, returns best
// per-iteration seconds (best-of is stabler than mean on a shared CI core).
inline double time_best(const std::function<void()>& fn,
                        double min_seconds = 0.3) {
  fn();  // warm-up
  double best = 1e100;
  double total = 0.0;
  while (total < min_seconds) {
    Stopwatch sw;
    fn();
    const double s = sw.seconds();
    if (s < best) best = s;
    total += s;
  }
  return best;
}

// GFLOP/s of an r×k×n product (2·r·k·n flops) that took `seconds` — the one
// accounting every micro-bench row shares, so no bench can disagree on the
// flop model.
inline double gflops(std::size_t rows, std::size_t inner, std::size_t cols,
                     double seconds) {
  return 2.0 * static_cast<double>(rows) * static_cast<double>(inner) *
         static_cast<double>(cols) / seconds / 1e9;
}

// Convenience: time fn and convert straight to GFLOP/s.
inline double gflops_of(std::size_t rows, std::size_t inner,
                        std::size_t cols, const std::function<void()>& fn,
                        double min_seconds = 0.3) {
  return gflops(rows, inner, cols, time_best(fn, min_seconds));
}

// Median and interquartile range of repeated measurements. Quartiles use
// the exclusive method, as perfbench/stats.py (statistics.quantiles, n=4)
// does, so both harnesses report the same spread for the same samples.
struct MedianIqr {
  double median = 0.0;
  double iqr = 0.0;
};
inline MedianIqr median_iqr(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {};
  if (n == 1) return {v[0], 0.0};
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {quartile(2), quartile(3) - quartile(1)};
}

// Median and IQR of `reps` repetitions of a throughput: each rep is
// `per_call` (GFLOP per call for a GFLOP/s row, 1 for calls/s) over the
// best per-call seconds of its own time_best window of `min_seconds`, so
// the spread shows how far the host moved while the row was measured.
inline MedianIqr rate_reps(double per_call, const std::function<void()>& fn,
                           int reps = 5, double min_seconds = 0.06) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    rates.push_back(per_call / time_best(fn, min_seconds));
  }
  return median_iqr(rates);
}

}  // namespace netshare::bench
