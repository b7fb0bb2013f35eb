#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

// Seeded job streams for the repository benchmark. A stream is a pure
// function of (workload, seed): job i is derived from the seed and i
// alone, so the same seed always yields a byte-identical stream
// however many jobs a run consumes, and StreamHash() fingerprints it.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kServeMix, kColdOptimize, kRealTrain };

/// Parses "serve_mix" / "cold_optimize" / "real_train".
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// The five shipped DML scripts, by file name under scripts/.
const std::vector<std::string>& ScriptNames();

/// Tenants issuing requests; a job's tenant is drawn uniformly.
inline constexpr int kTenants = 4;
/// Size of the serve_mix program set (script x scenario x shape).
inline constexpr int kServePrograms = 40;
/// real_train's in-memory data sets: small (per-instruction overhead
/// bound), dense (working set larger than L2), sparse CSR (~2% nnz).
inline constexpr int kDataSets = 3;

/// One DML program: a script over one input shape. For real_train the
/// shape is that of in-memory data set `dataset`.
struct Program {
  int script = 0;  // index into ScriptNames()
  int64_t rows = 0;
  int64_t cols = 0;
  double sparsity = 1.0;
  int dataset = -1;  // real_train only
  std::string label;
};

/// One submission of the stream.
struct Job {
  int64_t index = 0;
  int tenant = 0;
  /// serve_mix / real_train: index into ProgramSet(). cold_optimize:
  /// the stratum (index into ProgramSet(), whose shape `program`
  /// perturbs into a shape no earlier job had).
  int program_id = 0;
  Program program;
};

/// The workload's fixed program population. serve_mix: 40 programs
/// (5 scripts x XS..L x two of the four dense/sparse, 100/1000-column
/// shapes), rows jittered by up to 1% from the seed. cold_optimize: the
/// same 40 (script, scenario, shape) strata with nominal rows.
/// real_train: 5 scripts x 3 data sets, rows jittered by up to 1%.
std::vector<Program> ProgramSet(Workload workload, uint64_t seed);

/// Job i of the stream. serve_mix draws programs with Zipf(0.8)
/// popularity falling with the program index (simpler scripts, then
/// smaller scenarios, are requested most); real_train draws them
/// uniformly. Both draw from a low-discrepancy sequence, so every block
/// of 64 jobs holds each program in close to its expected share.
/// cold_optimize visits every stratum once per block of 40 jobs in a
/// seeded order, each job with a row count no other job has.
Job JobAt(Workload workload, uint64_t seed,
          const std::vector<Program>& programs, int64_t index);

/// Canonical one-line text of a job (hashed by StreamHash).
std::string SerializeJob(const Job& job);

/// FNV-1a over the serialized first `num_jobs` jobs.
uint64_t StreamHash(Workload workload, uint64_t seed, int64_t num_jobs);

/// SplitMix64 finalizer: the stream's counter-based random source.
uint64_t Mix64(uint64_t x);

/// Uniform double in [0, 1) from a 64-bit draw.
inline double UnitDouble(uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
