#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Order statistics and span arithmetic for the repository benchmark.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`, which need
/// not be sorted. +infinity entries (failed or rejected jobs) sort last
/// and make every quantile that touches them infinite. Empty input
/// yields 0.
double Quantile(std::vector<double> values, double q);

/// Samples strictly beyond the q-quantile of n samples, with q given in
/// per-mille to keep the count exact: n - ceil(n * q / 1000).
int64_t SamplesBeyond(int64_t n, int q_permille);

/// A percentile is reported only when at least this many samples lie
/// beyond it; for p95 that needs 200 samples.
inline constexpr int64_t kMinTailSamples = 10;

/// True when the q-quantile of n samples has kMinTailSamples beyond it.
inline bool TailReportable(int64_t n, int q_permille) {
  return SamplesBeyond(n, q_permille) >= kMinTailSamples;
}

/// One traced call. Spans of one job share `job_id`; `parent` indexes
/// the enclosing span in the same vector (-1 for a job's root span).
struct Span {
  uint64_t job_id = 0;
  int layer = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, and
/// children are clipped to the parent's interval).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
