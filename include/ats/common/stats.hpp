#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ats {

/// The quartiles of a sample, each interpolated linearly between the two
/// nearest order statistics (numpy's default).  The figure harnesses
/// summarize each cell's repetitions with them: the median, which one
/// slow rep cannot drag, and the IQR as the cell's spread.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  double iqr() const { return q3 - q1; }
};

/// Quartiles of `samples` (taken by value and sorted); all zero when
/// empty.
inline Quartiles quartilesOf(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const auto at = [&samples](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

}  // namespace ats
