#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return std::numeric_limits<double>::infinity();
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t SamplesBeyond(int64_t n, int q_permille) {
  const int64_t at_or_below = (n * q_permille + 999) / 1000;
  return n - at_or_below;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t start = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = start;  // end of the covered prefix so far
    for (const auto& [kid_start, kid_end] : kids) {
      const int64_t from = std::max(kid_start, cursor);
      const int64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (end - start) - covered;
  }
  return self;
}

}  // namespace perfbench
