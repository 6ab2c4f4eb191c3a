//===- perfbench/src/Stats.cpp --------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

using namespace perfbench;

size_t perfbench::percentileRank(size_t N, double P) {
  if (N == 0)
    return 0;
  double Rank = std::ceil(P / 100.0 * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(Rank, 1.0)), 1, N);
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  size_t Rank = percentileRank(Values.size(), P);
  std::nth_element(Values.begin(), Values.begin() + (Rank - 1), Values.end());
  return Values[Rank - 1];
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

bool perfbench::validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.' || C == '-';
  });
}
