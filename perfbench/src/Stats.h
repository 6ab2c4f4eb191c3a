//===- perfbench/src/Stats.h - Percentiles and metric names -----*- C++ -*-===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// The percentile rule: a latency percentile is reported only when at
/// least this many samples lie beyond it.
inline constexpr size_t MinSamplesBeyond = 10;

/// 1-based nearest rank of the \p P-th percentile (0 < P <= 100) of \p N
/// samples: ceil(P / 100 * N).
size_t percentileRank(size_t N, double P);

/// Samples strictly beyond the \p P-th percentile's rank: N - rank.
inline size_t samplesBeyond(size_t N, double P) {
  return N - percentileRank(N, P);
}

/// True when the \p P-th percentile of \p N samples leaves at least
/// MinSamplesBeyond samples beyond it.
inline bool percentileReportable(size_t N, double P) {
  return N > 0 && samplesBeyond(N, P) >= MinSamplesBeyond;
}

/// Nearest-rank percentile of \p Values (need not be sorted). Returns 0 for
/// an empty input.
double percentile(std::vector<double> Values, double P);

/// Middle value (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> Values);

/// Metric names: 1 to 64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool validMetricName(const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
