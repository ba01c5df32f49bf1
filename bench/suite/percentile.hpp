#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace suite {

/// Nearest-rank percentile (`p` in (0, 100]) of `values`; 0 when empty.
template <typename T>
double percentile(std::vector<T> values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

template <typename T>
double median(std::vector<T> values) {
  return percentile(std::move(values), 50.0);
}

}  // namespace suite
