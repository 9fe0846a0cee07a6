// Order statistics used for every reported timing.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace rpcbench {

// Nearest-rank percentile: the smallest sample with at least q% of the
// samples at or below it (q in (0, 100]). Takes its input by value and
// partially reorders the copy; 0 for an empty input.
template <typename T>
T Percentile(std::vector<T> values, double q) {
  if (values.empty()) return T{};
  size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

// Median of a small set of per-block figures (mean of the middle two
// for an even count).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace rpcbench
