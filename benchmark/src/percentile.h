// Exact percentiles over every recorded latency sample.
//
// The engine's Histogram keeps about 8 sub-buckets per octave (~12.5% wide),
// wider than the benchmark's bounds, so the benchmark keeps each sample as a
// u32 nanosecond count and ranks it exactly: the q-quantile of N samples is
// the ceil(q * N)-th smallest, x. Because samples are whole nanoseconds and
// simulated latencies take few distinct values, the result is refined inside
// x's 1 ns class with the grouped-data formula
//
//   x - 0.5 + (q * N - F) / f      (F samples below x, f samples equal to x)
//
// which stays within half a nanosecond of x but moves when the share of
// transactions at x moves, even if x itself does not. For N = 4 it gives the
// usual median (2.5 for {1, 2, 3, 4}). Quantiles are given in thousandths so
// the rank is computed in integers: 999 is p99.9.

#ifndef BENCHMARK_SRC_PERCENTILE_H_
#define BENCHMARK_SRC_PERCENTILE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace fbench {

// Reorders `v` (partially); 0 for an empty sample. 0 < per_mille <= 1000.
inline double Percentile(std::vector<uint32_t>& v, uint64_t per_mille) {
  if (v.empty()) {
    return 0;
  }
  const uint64_t n = v.size();
  const uint64_t rank = std::clamp<uint64_t>((per_mille * n + 999) / 1000, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  const uint32_t x = v[rank - 1];
  uint64_t below = 0;
  uint64_t equal = 0;
  for (const uint32_t s : v) {
    below += s < x ? 1 : 0;
    equal += s == x ? 1 : 0;
  }
  const double target = static_cast<double>(per_mille) * static_cast<double>(n) / 1000.0;
  return static_cast<double>(x) - 0.5 +
         (target - static_cast<double>(below)) / static_cast<double>(equal);
}

}  // namespace fbench

#endif  // BENCHMARK_SRC_PERCENTILE_H_
