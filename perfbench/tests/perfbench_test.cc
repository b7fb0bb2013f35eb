// Unit tests of the benchmark's own logic: stream determinism, the p95
// sample-count rule, quantiles and span self-time arithmetic. Run with
// `python3 perfbench/run.py --self-test`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "stats.h"
#include "stream.h"

namespace pb = perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what.c_str());
    ++failures;
  }
}

std::string StreamText(pb::Workload w, uint64_t seed, int64_t n) {
  const std::vector<pb::Program> programs = pb::ProgramSet(w, seed);
  std::string text;
  for (int64_t i = 0; i < n; ++i) {
    text += pb::SerializeJob(pb::JobAt(w, seed, programs, i));
  }
  return text;
}

void TestStreamDeterminism() {
  for (pb::Workload w : {pb::Workload::kServeMix, pb::Workload::kColdOptimize,
                         pb::Workload::kRealTrain}) {
    const std::string name = pb::WorkloadName(w);
    Expect(StreamText(w, 7, 500) == StreamText(w, 7, 500),
           name + ": same seed, same bytes");
    Expect(StreamText(w, 7, 500) != StreamText(w, 8, 500),
           name + ": another seed, another stream");
    Expect(pb::StreamHash(w, 7, 500) == pb::StreamHash(w, 7, 500),
           name + ": stream hash repeats");
    Expect(pb::StreamHash(w, 7, 500) != pb::StreamHash(w, 8, 500),
           name + ": stream hash follows the seed");
    // Job i does not depend on how many jobs were generated before it.
    const std::vector<pb::Program> programs = pb::ProgramSet(w, 7);
    Expect(pb::SerializeJob(pb::JobAt(w, 7, programs, 321)) ==
               pb::SerializeJob(pb::JobAt(w, 7, programs, 321)),
           name + ": random access");
    pb::Workload parsed;
    Expect(pb::ParseWorkload(name, &parsed) && parsed == w,
           name + ": name round-trips");
  }
}

void TestStreamShapes() {
  // serve_mix repeats a fixed set of 40 programs with a skewed
  // popularity; every tenant appears.
  const auto serve = pb::ProgramSet(pb::Workload::kServeMix, 3);
  Expect(serve.size() == 40, "serve_mix has 40 programs");
  std::vector<int> hits(serve.size(), 0);
  std::set<int> tenants;
  for (int64_t i = 0; i < 4000; ++i) {
    const pb::Job job = pb::JobAt(pb::Workload::kServeMix, 3, serve, i);
    hits[job.program_id]++;
    tenants.insert(job.tenant);
  }
  int max_hits = 0;
  int min_hits = 1 << 30;
  for (int h : hits) {
    max_hits = std::max(max_hits, h);
    min_hits = std::min(min_hits, h);
  }
  Expect(max_hits > 10 * min_hits, "serve_mix popularity is skewed");
  Expect(static_cast<int>(tenants.size()) == pb::kTenants, "all tenants");

  // cold_optimize never repeats a shape, and each block of 40 jobs
  // covers every stratum once.
  const auto strata = pb::ProgramSet(pb::Workload::kColdOptimize, 3);
  std::set<std::string> shapes;
  std::set<int> block;
  for (int64_t i = 0; i < 400; ++i) {
    const pb::Job job = pb::JobAt(pb::Workload::kColdOptimize, 3, strata, i);
    shapes.insert(job.program.label + "/" + std::to_string(job.program.rows));
    if (i < 40) block.insert(job.program_id);
    Expect(job.program.rows >= strata[job.program_id].rows,
           "cold_optimize rows never below nominal");
  }
  Expect(shapes.size() == 400, "cold_optimize shapes are all new");
  Expect(block.size() == 40, "cold_optimize visits every stratum per block");
}

void TestTailRule() {
  Expect(pb::SamplesBeyond(200, 950) == 10, "200 samples: 10 beyond p95");
  Expect(pb::SamplesBeyond(199, 950) == 9, "199 samples: 9 beyond p95");
  Expect(pb::TailReportable(200, 950), "p95 reportable at 200");
  Expect(!pb::TailReportable(199, 950), "p95 not reportable at 199");
  Expect(pb::TailReportable(20, 500), "p50 reportable at 20");
  Expect(!pb::TailReportable(1000, 999), "p99.9 needs 10000 samples");
  Expect(pb::TailReportable(10000, 999), "p99.9 reportable at 10000");
}

void TestQuantile() {
  const double inf = std::numeric_limits<double>::infinity();
  Expect(pb::Quantile({}, 0.5) == 0.0, "empty quantile");
  Expect(pb::Quantile({3, 1, 2}, 0.5) == 2.0, "odd median");
  Expect(pb::Quantile({4, 1, 3, 2}, 0.5) == 2.5, "even median interpolates");
  Expect(pb::Quantile({1, 2, 3, 4, 5}, 1.0) == 5.0, "max");
  std::vector<double> with_failure(100, 1.0);
  with_failure[0] = inf;
  Expect(pb::Quantile(with_failure, 0.5) == 1.0, "one failure: finite p50");
  Expect(std::isinf(pb::Quantile(with_failure, 1.0)),
         "a failure is an infinite latency");
}

void TestSelfTime() {
  // root [0,100) with children [10,30) and [20,50) overlapping, and
  // [90,120) running past the root's end; a grandchild [12,18).
  std::vector<pb::Span> spans(5);
  spans[0] = {1, 0, -1, 0, 100};
  spans[1] = {1, 1, 0, 10, 30};
  spans[2] = {1, 2, 0, 20, 50};
  spans[3] = {1, 3, 0, 90, 120};
  spans[4] = {1, 4, 1, 12, 18};
  const std::vector<int64_t> self = pb::SelfTimesNs(spans);
  // Covered by children of the root: [10,50) + [90,100) = 50.
  Expect(self[0] == 50, "root self time minus merged, clipped children");
  Expect(self[1] == 14, "child self time minus its grandchild");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[3] == 30, "leaf past its parent keeps its own duration");
  Expect(self[4] == 6, "grandchild self time");

  // Sequential children sum exactly; self times add up to the root.
  std::vector<pb::Span> seq = {{2, 0, -1, 0, 1000},
                               {2, 1, 0, 100, 400},
                               {2, 2, 0, 400, 900}};
  const std::vector<int64_t> s2 = pb::SelfTimesNs(seq);
  Expect(s2[0] == 200 && s2[1] == 300 && s2[2] == 500,
         "sequential children");
  Expect(s2[0] + s2[1] + s2[2] == 1000, "self times partition the root");
}

}  // namespace

int main() {
  TestStreamDeterminism();
  TestStreamShapes();
  TestTailRule();
  TestQuantile();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
