#include "stream.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {
namespace {

// Section 5.1 data scenarios (total cells) and shapes.
constexpr std::array<const char*, 4> kScenarioNames = {"XS", "S", "M", "L"};
constexpr std::array<int64_t, 4> kScenarioCells = {
    10000000LL, 100000000LL, 1000000000LL, 10000000000LL};

struct Shape {
  const char* name;
  int64_t cols;
  double sparsity;
};
constexpr std::array<Shape, 4> kShapes = {{{"dense1000", 1000, 1.0},
                                           {"sparse1000", 1000, 0.01},
                                           {"dense100", 100, 1.0},
                                           {"sparse100", 100, 0.01}}};

// real_train data sets. small: per-instruction overhead dominates;
// dense: 3.2 MB of X, larger than a core's 2 MB L2; sparse: CSR at 2% nnz.
struct DataSet {
  const char* name;
  int64_t rows;
  int64_t cols;
  double sparsity;
};
constexpr std::array<DataSet, kDataSets> kDataSetShapes = {
    {{"small", 2000, 32, 1.0},
     {"dense", 4000, 100, 1.0},
     {"sparse", 4000, 400, 0.02}}};

// Independent draw streams of one seed.
enum Salt : uint64_t {
  kSaltJitter = 1,
  kSaltProgram = 2,
  kSaltTenant = 3,
  kSaltOrder = 4,
};

uint64_t Draw(uint64_t seed, uint64_t salt, uint64_t counter) {
  return Mix64(Mix64(seed ^ (salt * 0xD6E8FEB86659FD93ULL)) + counter);
}

// Fisher-Yates over [0, n) driven by `seed`/`salt`/`counter`.
std::vector<int> Permutation(int n, uint64_t seed, uint64_t salt,
                             uint64_t counter) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const uint64_t j =
        Draw(seed, salt, counter * 1024 + static_cast<uint64_t>(i)) %
        static_cast<uint64_t>(i + 1);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

// Cumulative Zipf(0.8) weights over the serve_mix programs in index
// order: simpler scripts, then smaller scenarios, are requested most.
// The weights are the same for every seed; the seed decides the draws.
// With a steeper skew the median job's latency sits where the latency
// distribution jumps from unqueued jobs to jobs queued behind a slow
// one, and p50 swings by tens of percent between identical runs.
const std::vector<double>& ServeCdf() {
  static const std::vector<double> kCdf = [] {
    std::vector<double> cdf;
    double total = 0.0;
    for (int r = 0; r < kServePrograms; ++r) {
      total += std::pow(r + 1.0, -0.8);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
    return cdf;
  }();
  return kCdf;
}

// Uniform draw in [0, 1) for job `index` of a program mixture. Draws
// come from a golden-ratio sequence at a seeded phase, permuted within
// blocks of kMixBlock jobs: every block holds each program in close to
// its expected proportion, so runs of any length see the same mixture,
// while the order within a block is random.
constexpr int64_t kMixBlock = 64;

double MixtureDraw(uint64_t seed, int64_t index) {
  const int64_t block = index / kMixBlock;
  const std::vector<int> perm = Permutation(
      kMixBlock, seed, kSaltProgram, static_cast<uint64_t>(block));
  const int64_t slot = block * kMixBlock + perm[index % kMixBlock];
  const double phase = UnitDouble(Draw(seed, kSaltProgram, ~0ULL));
  const double x = phase + 0.6180339887498949 * static_cast<double>(slot);
  return x - std::floor(x);
}

// Program k of the 40 (script, scenario, shape) strata at nominal rows.
Program StratumProgram(int k) {
  Program p;
  p.script = k / 8;
  const int scenario = (k / 2) % 4;
  // Two of the four shapes per (script, scenario), alternating so every
  // shape appears at every scale.
  const int pair = (p.script + scenario) % 2;
  const Shape& shape = kShapes[pair == 0 ? (k % 2 == 0 ? 0 : 3)
                                         : (k % 2 == 0 ? 2 : 1)];
  p.cols = shape.cols;
  p.sparsity = shape.sparsity;
  p.rows = kScenarioCells[scenario] / shape.cols;
  p.label = ScriptNames()[p.script] + "/" + kScenarioNames[scenario] + "/" +
            shape.name;
  return p;
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServeMix, Workload::kColdOptimize,
                     Workload::kRealTrain}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeMix:
      return "serve_mix";
    case Workload::kColdOptimize:
      return "cold_optimize";
    case Workload::kRealTrain:
      return "real_train";
  }
  return "?";
}

const std::vector<std::string>& ScriptNames() {
  static const std::vector<std::string> kNames = {
      "linreg_ds.dml", "linreg_cg.dml", "l2svm.dml", "mlogreg.dml",
      "glm.dml"};
  return kNames;
}

std::vector<Program> ProgramSet(Workload workload, uint64_t seed) {
  std::vector<Program> programs;
  if (workload == Workload::kRealTrain) {
    for (int s = 0; s < static_cast<int>(ScriptNames().size()); ++s) {
      for (int d = 0; d < kDataSets; ++d) {
        const DataSet& ds = kDataSetShapes[d];
        Program p;
        p.script = s;
        p.dataset = d;
        p.cols = ds.cols;
        p.sparsity = ds.sparsity;
        p.label = ScriptNames()[s] + "/" + ds.name;
        programs.push_back(p);
      }
    }
    // Every program over one data set shares its (jittered) rows.
    for (Program& p : programs) {
      const DataSet& ds = kDataSetShapes[p.dataset];
      p.rows = ds.rows + static_cast<int64_t>(
                             UnitDouble(Draw(seed, kSaltJitter, p.dataset)) *
                             0.01 * static_cast<double>(ds.rows));
    }
    return programs;
  }
  for (int k = 0; k < kServePrograms; ++k) {
    Program p = StratumProgram(k);
    if (workload == Workload::kServeMix) {
      p.rows += static_cast<int64_t>(UnitDouble(Draw(seed, kSaltJitter, k)) *
                                     0.01 * static_cast<double>(p.rows));
    }
    programs.push_back(p);
  }
  return programs;
}

Job JobAt(Workload workload, uint64_t seed,
          const std::vector<Program>& programs, int64_t index) {
  Job job;
  job.index = index;
  const uint64_t i = static_cast<uint64_t>(index);
  job.tenant = static_cast<int>(Draw(seed, kSaltTenant, i) % kTenants);
  switch (workload) {
    case Workload::kServeMix: {
      const std::vector<double>& cdf = ServeCdf();
      const double u = MixtureDraw(seed, index);
      int k = 0;
      while (k + 1 < kServePrograms && cdf[k] <= u) ++k;
      job.program_id = k;
      job.program = programs[job.program_id];
      break;
    }
    case Workload::kRealTrain:
      job.program_id = std::min(
          static_cast<int>(MixtureDraw(seed, index) * programs.size()),
          static_cast<int>(programs.size()) - 1);
      job.program = programs[job.program_id];
      break;
    case Workload::kColdOptimize: {
      const int64_t pass = index / kServePrograms;
      const std::vector<int> order = Permutation(
          kServePrograms, seed, kSaltOrder, static_cast<uint64_t>(pass));
      job.program_id = order[index % kServePrograms];
      job.program = programs[job.program_id];
      // A seeded offset of up to 1% per stratum plus one row per pass:
      // no two jobs share a shape, so every job compiles and costs a
      // program the plan cache has never seen.
      job.program.rows +=
          static_cast<int64_t>(
              UnitDouble(Draw(seed, kSaltJitter,
                              static_cast<uint64_t>(job.program_id))) *
              0.01 * static_cast<double>(job.program.rows)) +
          pass;
      break;
    }
  }
  return job;
}

std::string SerializeJob(const Job& job) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%lld t%d p%d %s %lldx%lld s%.17g d%d\n",
                static_cast<long long>(job.index), job.tenant, job.program_id,
                job.program.label.c_str(),
                static_cast<long long>(job.program.rows),
                static_cast<long long>(job.program.cols),
                job.program.sparsity, job.program.dataset);
  return buf;
}

uint64_t StreamHash(Workload workload, uint64_t seed, int64_t num_jobs) {
  const std::vector<Program> programs = ProgramSet(workload, seed);
  uint64_t h = 1469598103934665603ULL;
  for (int64_t i = 0; i < num_jobs; ++i) {
    for (char c : SerializeJob(JobAt(workload, seed, programs, i))) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace perfbench
