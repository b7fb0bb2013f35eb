// The repository benchmark: one seeded job stream per workload pushed
// through serve::JobService by a closed-loop generator, with end-to-end
// metrics from an untraced run, per-layer metrics from a traced replay
// of the same stream, and a correctness check of every job against an
// uncached (or serial) reference. See perfbench/README.md.
//
//   relm_perfbench --workload serve_mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common/random.h"
#include "core/plan_cache.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "serve/job_service.h"
#include "stats.h"
#include "stream.h"

namespace pb = perfbench;
using namespace relm;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Jobs every timed phase finishes at least, so p95 has ten samples
// beyond it (pb::TailReportable).
constexpr int64_t kMinJobs = 200;
// Jobs whose plans define plan_est_s / plan_sim_s on cold_optimize: five
// full passes over the 40 strata.
constexpr int64_t kPlanPrefix = 200;
// Jobs fingerprinted by the printed stream hash.
constexpr int64_t kHashedJobs = 4096;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// jobs_per_s is the median completion rate over this many equal slices
// of a timed phase, so a short stall of the host moves it little.
constexpr int kRateSlices = 10;
// mlogreg's label cardinality: classes of the real data and the
// simulator's oracle for table()'s unknown output width.
constexpr int64_t kClasses = 3;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "relm_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- options ---------------------------------------------------------------

struct Options {
  pb::Workload workload = pb::Workload::kServeMix;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scripts_dir = "scripts";
  std::string trace_dir = ".bench_build/traces";
  std::string git_rev = "unavailable";
  std::string tree_digest = "unavailable";
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!pb::ParseWorkload(value, &o.workload)) {
        Die("unknown workload " + value);
      }
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atoi(value.c_str());
      if (o.seconds < 1 || o.seconds > 600) Die("--seconds out of range");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scripts-dir") {
      o.scripts_dir = value;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else if (flag == "--git-rev") {
      o.git_rev = value;
    } else if (flag == "--tree-digest") {
      o.tree_digest = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  return o;
}

// Load stays within the host: a window of at most nproc outstanding
// jobs, and service workers, the shared engine pool and optimizer
// threads each at most nproc/2.
struct Concurrency {
  int nproc = 1;
  int window = 1;
  int workers = 1;
  int exec_workers = 1;
  int optimizer_threads = 1;
};

Concurrency ChooseConcurrency() {
  Concurrency c;
  c.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int half = std::max(1, c.nproc / 2);
  c.window = std::min(4, c.nproc);
  c.workers = std::min(2, half);
  c.exec_workers = std::min(2, half);
  c.optimizer_threads = 1;
  return c;
}

// ---- host fingerprint ------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HostFingerprint(const Options& o, const Concurrency& c,
                            uint64_t stream_hash) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(stream_hash));
  std::ostringstream os;
  os << "{\"nproc\": " << c.nproc << ", \"cpu\": \"" << JsonEscape(CpuModel())
     << "\", \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"cxx_flags\": \"" << JsonEscape(PERFBENCH_CXX_FLAGS)
     << "\", \"RELM_OBS_ENABLED\": " << RELM_OBS_ENABLED
     << ", \"RELM_FAULTS_ENABLED\": " << RELM_FAULTS_ENABLED
     << ", \"git_rev\": \"" << JsonEscape(o.git_rev)
     << "\", \"tree_digest\": \"" << JsonEscape(o.tree_digest)
     << "\", \"workload\": \"" << pb::WorkloadName(o.workload)
     << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
     << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"window\": " << c.window
     << ", \"service_workers\": " << c.workers
     << ", \"exec_workers\": " << c.exec_workers
     << ", \"optimizer_threads\": " << c.optimizer_threads
     << ", \"stream_hash\": \"" << hash << "\", \"stream_hash_jobs\": "
     << kHashedJobs << "}";
  return os.str();
}

// ---- real_train data -------------------------------------------------------

// One in-memory data set with its generating ground truth. Labels for
// each script family derive from the same features.
struct DataSet {
  MatrixBlock x;
  MatrixBlock beta;     // cols x 1: linreg coefficients, l2svm separator
  MatrixBlock y_reg;    // X beta + small noise
  MatrixBlock y_svm;    // sign(X beta) in {-1, +1}
  MatrixBlock y_class;  // argmax(X W) in 1..kClasses
  MatrixBlock y_count;  // Poisson(exp(X beta * scale))
};

MatrixBlock MustMatMult(const MatrixBlock& a, const MatrixBlock& b) {
  Result<MatrixBlock> r = MatMult(a, b);
  if (!r.ok()) Die("data generation: " + r.status().ToString());
  return std::move(r).value();
}

DataSet MakeDataSet(const pb::Program& p, uint64_t seed) {
  Random rng(pb::Mix64(seed * 31 + static_cast<uint64_t>(p.dataset)));
  DataSet d;
  d.x = MatrixBlock::Rand(p.rows, p.cols, p.sparsity, -1, 1, &rng);
  d.beta = MatrixBlock::Rand(p.cols, 1, 1.0, -1, 1, &rng);
  const MatrixBlock w = MatrixBlock::Rand(p.cols, kClasses, 1.0, -1, 1, &rng);
  const MatrixBlock xb = MustMatMult(d.x, d.beta);
  const MatrixBlock xw = MustMatMult(d.x, w);
  // Poisson means exp(eta) with eta's spread ~0.5 whatever the width.
  const double scale =
      1.5 / std::sqrt(std::max(1.0, static_cast<double>(p.cols) * p.sparsity));
  d.y_reg = MatrixBlock(p.rows, 1);
  d.y_svm = MatrixBlock(p.rows, 1);
  d.y_class = MatrixBlock(p.rows, 1);
  d.y_count = MatrixBlock(p.rows, 1);
  for (int64_t r = 0; r < p.rows; ++r) {
    const double eta = xb.Get(r, 0);
    d.y_reg.Set(r, 0, eta + rng.Uniform(-0.01, 0.01));
    d.y_svm.Set(r, 0, eta >= 0 ? 1.0 : -1.0);
    int64_t best = 0;
    for (int64_t k = 1; k < kClasses; ++k) {
      if (xw.Get(r, k) > xw.Get(r, best)) best = k;
    }
    d.y_class.Set(r, 0, static_cast<double>(best + 1));
    // Poisson draw by inversion.
    const double lambda = std::exp(eta * scale);
    double u = rng.NextDouble();
    double prob = std::exp(-lambda);
    double cdf = prob;
    int64_t count = 0;
    while (u > cdf && count < 1000) {
      ++count;
      prob *= lambda / static_cast<double>(count);
      cdf += prob;
    }
    d.y_count.Set(r, 0, static_cast<double>(count));
  }
  return d;
}

// Label vector each script trains on, by index into pb::ScriptNames().
const char* LabelName(int script) {
  switch (script) {
    case 2:
      return "y_svm";
    case 3:
      return "y_class";
    case 4:
      return "y_count";
    default:
      return "y_reg";
  }
}

const MatrixBlock& Label(const DataSet& d, int script) {
  switch (script) {
    case 2:
      return d.y_svm;
    case 3:
      return d.y_class;
    case 4:
      return d.y_count;
    default:
      return d.y_reg;
  }
}

// ---- job requests ----------------------------------------------------------

// HDFS layout. serve_mix: one directory per program, registered at
// set-up. cold_optimize: one directory per window slot — job i uses
// slot i % window, and the in-order closed loop never has two jobs of
// one slot in flight. real_train: one directory per data set.
std::string InputDir(pb::Workload w, const pb::Job& job, int window) {
  switch (w) {
    case pb::Workload::kServeMix:
      return "/data/p" + std::to_string(job.program_id);
    case pb::Workload::kColdOptimize:
      return "/data/slot" + std::to_string(job.index % window);
    case pb::Workload::kRealTrain:
      return "/data/d" + std::to_string(job.program.dataset);
  }
  return "";
}

ScriptArgs ArgsFor(pb::Workload w, const pb::Job& job, int window) {
  const std::string in = InputDir(w, job, window);
  const std::string out =
      "/out" + in.substr(5) + "/" + std::to_string(job.program.script);
  const std::string y =
      w == pb::Workload::kRealTrain ? LabelName(job.program.script) : "y";
  return ScriptArgs{{"X", in + "/X"},
                    {"Y", in + "/" + y},
                    {"B", out + "/B"},
                    {"model", out + "/w"}};
}

std::vector<serve::InputSpec> InputsFor(pb::Workload w, const pb::Job& job,
                                        int window) {
  const std::string in = InputDir(w, job, window);
  return {{in + "/X", job.program.rows, job.program.cols,
           job.program.sparsity},
          {in + "/y", job.program.rows, 1, 1.0}};
}

SymbolMap OracleFor(const pb::Program& p) {
  SymbolMap oracle;
  if (pb::ScriptNames()[p.script] == "mlogreg.dml") {
    SymbolInfo info;
    info.dtype = DataType::kMatrix;
    info.mc = MatrixCharacteristics(p.rows, kClasses, p.rows);
    oracle["Y"] = info;
  }
  return oracle;
}

Status RegisterInputs(Session* session, const std::vector<serve::InputSpec>&
                                            inputs) {
  for (const serve::InputSpec& in : inputs) {
    RELM_RETURN_IF_ERROR(session->RegisterMatrixMetadata(in.path, in.rows,
                                                         in.cols, in.sparsity));
  }
  return Status::OK();
}

// ---- the fixture: one complete set-up --------------------------------------

struct Workbench {
  Options opts;
  Concurrency conc;
  std::vector<std::string> sources;  // by script index
  std::vector<pb::Program> programs;

  pb::Job JobAt(int64_t i) const {
    return pb::JobAt(opts.workload, opts.seed, programs, i);
  }

  serve::JobRequest RequestFor(const pb::Job& job) const {
    serve::JobRequest req;
    req.source = sources[job.program.script];
    req.args = ArgsFor(opts.workload, job, conc.window);
    req.oracle = OracleFor(job.program);
    if (opts.workload == pb::Workload::kColdOptimize) {
      req.inputs = InputsFor(opts.workload, job, conc.window);
    }
    req.execute_real = opts.workload == pb::Workload::kRealTrain;
    return req;
  }

  serve::ServeOptions ServiceOptions(PlanCache* cache) const {
    return serve::ServeOptions()
        .WithWorkers(conc.workers)
        .WithExecWorkers(conc.exec_workers)
        .WithPlanCache(cache)
        .WithSimulation(opts.workload == pb::Workload::kServeMix)
        .WithOptimizer(OptimizerOptions().WithGridPoints(45).WithThreads(
            conc.optimizer_threads));
  }
};

// What the benchmark keeps of one finished job.
struct JobRecord {
  pb::Job job;
  bool ok = false;
  std::string error;
  double latency_s = kInf;
  ResourceConfig config;
  double best_cost = 0.0;
  int64_t cost_invocations = 0;
  int64_t block_recompiles = 0;
  double sim_elapsed = 0.0;
  std::vector<std::string> printed;
  exec::ExecStats exec;
  double wait_s = 0.0;
  double run_s = 0.0;
  double done_at_s = 0.0;  // completion, from the start of the phase
};

using Awaiter = std::function<Result<serve::JobOutcome>()>;
using Submitter = std::function<Result<Awaiter>(const pb::Job&)>;

struct LoopResult {
  std::vector<JobRecord> records;
  double wall_s = 0.0;
  int64_t rejected = 0;
};

JobRecord Summarize(const pb::Job& job, Result<serve::JobOutcome> out,
                    double latency_s) {
  JobRecord rec;
  rec.job = job;
  if (!out.ok()) {
    rec.error = out.status().ToString();
    return rec;
  }
  const serve::JobOutcome& o = out.value();
  rec.ok = true;
  rec.latency_s = latency_s;
  rec.config = o.config;
  rec.best_cost = o.opt_stats.best_cost;
  rec.cost_invocations = o.opt_stats.cost_invocations;
  rec.block_recompiles = o.opt_stats.block_recompiles;
  rec.sim_elapsed = o.sim.elapsed_seconds;
  rec.printed = o.real.printed;
  rec.exec = o.real.exec;
  rec.wait_s = o.wait_seconds;
  rec.run_s = o.run_seconds;
  return rec;
}

// The load generator: one thread keeping `window` submissions
// outstanding and awaiting them in submission order. Submits job n =
// 0, 1, ... until `max_jobs`, or until at least `min_jobs` were
// submitted and `min_seconds` have passed; then drains.
LoopResult RunClosedLoop(int window,
                         const std::function<pb::Job(int64_t)>& job_at,
                         const Submitter& submit, double min_seconds,
                         int64_t min_jobs, int64_t max_jobs) {
  struct Pending {
    pb::Job job;
    Clock::time_point submitted;
    Awaiter await;
  };
  LoopResult result;
  std::deque<Pending> pending;
  int64_t next = 0;
  const Clock::time_point start = Clock::now();
  auto more = [&] {
    if (next >= max_jobs) return false;
    return next < min_jobs || SecondsSince(start) < min_seconds;
  };
  while (true) {
    while (static_cast<int>(pending.size()) < window && more()) {
      pb::Job job = job_at(next++);
      const Clock::time_point t0 = Clock::now();
      Result<Awaiter> handle = submit(job);
      if (!handle.ok()) {
        // Rejected: counts as a failed job with infinite latency.
        result.rejected++;
        result.records.push_back(Summarize(job, handle.status(), kInf));
        continue;
      }
      pending.push_back({std::move(job), t0, std::move(handle).value()});
    }
    if (pending.empty()) break;
    Pending p = std::move(pending.front());
    pending.pop_front();
    Result<serve::JobOutcome> out = p.await();
    const double latency = SecondsSince(p.submitted);
    result.records.push_back(Summarize(p.job, std::move(out), latency));
    result.records.back().done_at_s = SecondsSince(start);
  }
  result.wall_s = SecondsSince(start);
  return result;
}

Submitter ServiceSubmitter(serve::JobService* service, const Workbench& wb) {
  return [service, &wb](const pb::Job& job) -> Result<Awaiter> {
    RELM_ASSIGN_OR_RETURN(
        serve::JobHandle handle,
        service->Submit("tenant" + std::to_string(job.tenant),
                        wb.RequestFor(job)));
    return Awaiter([handle]() mutable { return handle.Await(); });
  };
}

// Jobs that warm a fresh set-up: each program once (cold_optimize: each
// stratum once, one row below nominal, a shape its stream never uses).
std::vector<pb::Job> WarmupJobs(const Workbench& wb) {
  std::vector<pb::Job> jobs;
  for (int k = 0; k < static_cast<int>(wb.programs.size()); ++k) {
    pb::Job job;
    job.index = k;
    job.program_id = k;
    job.tenant = k % pb::kTenants;
    job.program = wb.programs[k];
    if (wb.opts.workload == pb::Workload::kColdOptimize) job.program.rows -= 1;
    jobs.push_back(job);
  }
  return jobs;
}

// One complete set-up: its own plan cache, a job service, the inputs
// (generated data for real_train) registered, and a warm-up pass.
struct Fixture {
  std::unique_ptr<PlanCache> cache;
  std::unique_ptr<serve::JobService> service;
  std::vector<std::shared_ptr<const DataSet>> data;  // real_train
};

std::unique_ptr<Fixture> SetUp(const Workbench& wb) {
  auto fx = std::make_unique<Fixture>();
  fx->cache = std::make_unique<PlanCache>();
  fx->service = std::make_unique<serve::JobService>(
      ClusterConfig::PaperCluster(), wb.ServiceOptions(fx->cache.get()));
  if (!fx->service->startup_status().ok()) {
    Die("service start: " + fx->service->startup_status().ToString());
  }
  Session& session = fx->service->session();
  const std::vector<pb::Job> warm = WarmupJobs(wb);
  if (wb.opts.workload == pb::Workload::kServeMix) {
    // The namespace is complete before the first compile: any new input
    // metadata would change every plan-cache key.
    for (const pb::Job& job : warm) {
      Status st = RegisterInputs(
          &session, InputsFor(wb.opts.workload, job, wb.conc.window));
      if (!st.ok()) Die("register: " + st.ToString());
    }
  } else if (wb.opts.workload == pb::Workload::kRealTrain) {
    for (int d = 0; d < pb::kDataSets; ++d) {
      const pb::Program& p = wb.programs[d];  // script 0 over data set d
      auto ds = std::make_shared<const DataSet>(MakeDataSet(p, wb.opts.seed));
      const std::string dir = "/data/d" + std::to_string(d);
      Status st = session.RegisterMatrix(dir + "/X", ds->x);
      for (int s = 0; s < 5 && st.ok(); ++s) {
        st = session.RegisterMatrix(dir + "/" + LabelName(s), Label(*ds, s));
      }
      if (!st.ok()) Die("register: " + st.ToString());
      fx->data.push_back(std::move(ds));
    }
  }
  LoopResult warmed = RunClosedLoop(
      wb.conc.window, [&](int64_t i) { return warm[i]; },
      ServiceSubmitter(fx->service.get(), wb), 0.0,
      static_cast<int64_t>(warm.size()), static_cast<int64_t>(warm.size()));
  for (const JobRecord& r : warmed.records) {
    if (!r.ok) Die("warm-up job " + r.job.program.label + ": " + r.error);
  }
  return fx;
}

// ---- traced replay ---------------------------------------------------------

enum Layer { kJobLayer = 0, kCompile, kOptimize, kSimulate, kExecute, kLayers };
constexpr const char* kLayerNames[kLayers] = {
    "job", "compile", "core.optimize", "mrsim.simulate", "exec.execute"};

// Replays a stream with the service's concurrency, calling the public
// entry points JobService calls for each job — including its program
// instance pool — and recording one span per call. Spans stay in
// per-worker memory until the replay stops.
class TracedReplay {
 public:
  TracedReplay(Session session, serve::ServeOptions options, int workers)
      : session_(std::move(session)),
        options_(std::move(options)),
        epoch_(Clock::now()),
        spans_(workers) {
    for (int w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(&spans_[w]); });
    }
  }
  ~TracedReplay() { Stop(); }
  TracedReplay(const TracedReplay&) = delete;
  TracedReplay& operator=(const TracedReplay&) = delete;

  Awaiter Submit(serve::JobRequest request) {
    auto task = std::make_unique<Task>();
    task->request = std::move(request);
    task->submitted = Clock::now();
    std::shared_future<Result<serve::JobOutcome>> done =
        task->done.get_future().share();
    {
      std::lock_guard<std::mutex> lock(mu_);
      task->id = next_id_++;
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    return [done] { return done.get(); };
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// All spans, parent indices rebased into the merged vector. Call
  /// after Stop().
  std::vector<pb::Span> MergedSpans() const {
    std::vector<pb::Span> all;
    for (const std::vector<pb::Span>& part : spans_) {
      const int64_t base = static_cast<int64_t>(all.size());
      for (pb::Span s : part) {
        if (s.parent >= 0) s.parent += base;
        all.push_back(s);
      }
    }
    return all;
  }

 private:
  struct Task {
    uint64_t id = 0;
    serve::JobRequest request;
    Clock::time_point submitted;
    std::promise<Result<serve::JobOutcome>> done;
  };

  int64_t Begin(std::vector<pb::Span>* spans, uint64_t job, int layer,
                int64_t parent) const {
    pb::Span s;
    s.job_id = job;
    s.layer = layer;
    s.parent = parent;
    s.start_ns = NowNs();
    spans->push_back(s);
    return static_cast<int64_t>(spans->size()) - 1;
  }
  void End(std::vector<pb::Span>* spans, int64_t index) const {
    (*spans)[index].end_ns = NowNs();
  }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  void WorkerLoop(std::vector<pb::Span>* spans) {
    while (true) {
      std::unique_ptr<Task> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task->done.set_value(Run(*task, spans));
    }
  }

  Result<serve::JobOutcome> Run(const Task& task,
                                std::vector<pb::Span>* spans) {
    serve::JobOutcome out;
    out.wait_seconds = SecondsSince(task.submitted);
    const Clock::time_point run_start = Clock::now();
    const int64_t root = Begin(spans, task.id, kJobLayer, -1);
    Status st = RunSteps(task, spans, root, &out);
    End(spans, root);
    out.run_seconds = SecondsSince(run_start);
    if (!st.ok()) return st;
    return out;
  }

  // The steps of JobService::RunAttempt, each call in its own span.
  Status RunSteps(const Task& task, std::vector<pb::Span>* spans,
                  int64_t root, serve::JobOutcome* out) {
    const serve::JobRequest& req = task.request;
    RELM_RETURN_IF_ERROR(RegisterInputs(&session_, req.inputs));
    const uint64_t sig =
        ComputeScriptSignature(req.source, req.args, &session_.hdfs());
    std::unique_ptr<MlProgram> program = AcquirePooled(sig);
    if (program == nullptr) {
      const int64_t s = Begin(spans, task.id, kCompile, root);
      Result<std::unique_ptr<MlProgram>> compiled =
          session_.CompileSource(req.source, req.args);
      End(spans, s);
      RELM_ASSIGN_OR_RETURN(program, std::move(compiled));
    }
    int64_t s = Begin(spans, task.id, kOptimize, root);
    Result<OptimizeOutcome> opt =
        session_.Optimize(program.get(), options_.optimizer);
    End(spans, s);
    RELM_RETURN_IF_ERROR(opt.status());
    out->config = opt->config;
    out->opt_stats = std::move(opt->stats);
    if (options_.simulate) {
      s = Begin(spans, task.id, kSimulate, root);
      Result<SimResult> sim = session_.Simulate(program.get(), out->config,
                                                options_.sim, req.oracle);
      End(spans, s);
      RELM_RETURN_IF_ERROR(sim.status());
      out->sim = std::move(sim).value();
      out->simulated = true;
    }
    if (req.execute_real) {
      RealRunOptions real;
      real.workers = options_.exec_workers;
      real.memory_budget = out->config.CpBudget();
      s = Begin(spans, task.id, kExecute, root);
      Result<RealRun> run = session_.ExecuteReal(program.get(), real);
      End(spans, s);
      RELM_RETURN_IF_ERROR(run.status());
      out->real = std::move(run).value();
      out->executed_real = true;
    }
    ReleasePooled(sig, std::move(program));
    return Status::OK();
  }

  // JobService's program instance pool: trace-free instances are reused
  // by the next job with the same script signature; FIFO eviction at
  // the service's default capacity.
  std::unique_ptr<MlProgram> AcquirePooled(uint64_t sig) {
    std::lock_guard<std::mutex> lock(pool_mu_);
    auto it = pool_.find(sig);
    if (it == pool_.end() || it->second.empty()) return nullptr;
    std::unique_ptr<MlProgram> program = std::move(it->second.back());
    it->second.pop_back();
    pool_fifo_.erase(std::find(pool_fifo_.begin(), pool_fifo_.end(), sig));
    return program;
  }
  void ReleasePooled(uint64_t sig, std::unique_ptr<MlProgram> program) {
    const size_t cap = static_cast<size_t>(options_.max_pooled_programs);
    if (!program->IsPoolableTraceFree() || cap == 0) return;
    std::lock_guard<std::mutex> lock(pool_mu_);
    while (pool_fifo_.size() >= cap) {
      pool_[pool_fifo_.front()].pop_back();
      pool_fifo_.pop_front();
    }
    pool_[sig].push_back(std::move(program));
    pool_fifo_.push_back(sig);
  }

  Session session_;
  const serve::ServeOptions options_;
  const Clock::time_point epoch_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Task>> queue_;
  bool stopping_ = false;
  uint64_t next_id_ = 1;

  std::mutex pool_mu_;
  std::map<uint64_t, std::vector<std::unique_ptr<MlProgram>>> pool_;
  std::deque<uint64_t> pool_fifo_;

  std::vector<std::vector<pb::Span>> spans_;  // one per worker
  std::vector<std::thread> threads_;          // last: uses the above
};

Status WriteChromeTrace(const std::string& path,
                        const std::vector<pb::Span>& spans) {
  std::ofstream out(path);
  if (!out.good()) return Status::NotFound("cannot write " + path);
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"job_id\": %llu}}",
                  i == 0 ? "" : ",", kLayerNames[s.layer],
                  static_cast<unsigned long long>(s.job_id % 64),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.job_id));
    out << buf;
  }
  out << "\n]}\n";
  return out.good() ? Status::OK() : Status::Internal("short write " + path);
}

// ---- correctness -----------------------------------------------------------

bool SameConfig(const ResourceConfig& a, const ResourceConfig& b) {
  return a.cp_heap == b.cp_heap && a.default_mr_heap == b.default_mr_heap &&
         a.per_block_mr_heap == b.per_block_mr_heap &&
         a.cp_cores == b.cp_cores;
}

// What an uncached session (or the serial engine) computes for a job.
struct Reference {
  Status status;
  ResourceConfig config;
  double best_cost = 0.0;
  double sim_elapsed = 0.0;
  std::vector<std::string> printed;
  // Model quality against the generating ground truth (real_train):
  // relative coefficient error (linreg) or training accuracy (l2svm,
  // mlogreg); NaN where not checked.
  double quality = std::nan("");
};

void ParallelFor(int64_t n, int threads,
                 const std::function<void(int64_t, Session*)>& body,
                 const std::function<Session()>& make_session) {
  std::atomic<int64_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      Session session = make_session();
      for (int64_t i = next++; i < n; i = next++) body(i, &session);
    });
  }
  for (std::thread& t : pool) t.join();
}

double ModelQuality(Session* session, const pb::Job& job, const DataSet& d,
                    const ScriptArgs& args) {
  const std::string& script = pb::ScriptNames()[job.program.script];
  const bool linreg = script.rfind("linreg", 0) == 0;
  if (!linreg && script != "l2svm.dml" && script != "mlogreg.dml") {
    return std::nan("");
  }
  Result<HdfsFile> file =
      session->hdfs().Get(args.at(script == "l2svm.dml" ? "model" : "B"));
  if (!file.ok() || file->data == nullptr) return -1.0;
  const MatrixBlock& model = *file->data;
  if (model.rows() != d.beta.rows()) return -1.0;
  if (linreg) {
    double err = 0.0;
    double norm = 0.0;
    for (int64_t r = 0; r < d.beta.rows(); ++r) {
      const double diff = model.Get(r, 0) - d.beta.Get(r, 0);
      err += diff * diff;
      norm += d.beta.Get(r, 0) * d.beta.Get(r, 0);
    }
    return std::sqrt(err / norm);
  }
  Result<MatrixBlock> scores = MatMult(d.x, model);
  if (!scores.ok()) return -1.0;
  int64_t right = 0;
  for (int64_t r = 0; r < d.x.rows(); ++r) {
    double predicted;
    double truth;
    if (script == "l2svm.dml") {
      predicted = scores->Get(r, 0) >= 0 ? 1.0 : -1.0;
      truth = d.y_svm.Get(r, 0);
    } else {
      int64_t best = 0;
      for (int64_t k = 1; k < scores->cols(); ++k) {
        if (scores->Get(r, k) > scores->Get(r, best)) best = k;
      }
      predicted = static_cast<double>(best + 1);
      truth = d.y_class.Get(r, 0);
    }
    if (predicted == truth) ++right;
  }
  return static_cast<double>(right) / static_cast<double>(d.x.rows());
}

// Model-quality floors against the generating ground truth. mlogreg
// takes five gradient-descent steps, so its training accuracy depends on
// how separable the seeded classes are (0.898 to 0.98 over 17 seeds).
bool QualityHolds(const std::string& script, double q) {
  if (std::isnan(q)) return true;
  if (script == "linreg_ds.dml") return q >= 0.0 && q < 0.01;
  if (script == "linreg_cg.dml") return q >= 0.0 && q < 0.05;
  if (script == "l2svm.dml") return q >= 0.95;
  return q >= 0.8;  // mlogreg; chance is 1/3 to 1/2
}

Reference ComputeReference(const Workbench& wb, const Fixture& fx,
                           const pb::Job& job, bool simulate,
                           Session* session) {
  Reference ref;
  const pb::Workload w = wb.opts.workload;
  const serve::JobRequest req = wb.RequestFor(job);
  if (w != pb::Workload::kRealTrain) {
    ref.status = RegisterInputs(session, InputsFor(w, job, wb.conc.window));
    if (!ref.status.ok()) return ref;
  }
  auto compiled = session->CompileSource(req.source, req.args);
  if (!compiled.ok()) {
    ref.status = compiled.status();
    return ref;
  }
  const OptimizerOptions opt = wb.ServiceOptions(nullptr).optimizer;
  Result<OptimizeOutcome> outcome = session->Optimize(compiled->get(), opt);
  if (!outcome.ok()) {
    ref.status = outcome.status();
    return ref;
  }
  ref.config = outcome->config;
  ref.best_cost = outcome->stats.best_cost;
  if (w == pb::Workload::kRealTrain) {
    Result<RealRun> run =
        session->ExecuteReal(compiled->get(), RealRunOptions().WithWorkers(1));
    if (!run.ok()) {
      ref.status = run.status();
      return ref;
    }
    ref.printed = run->printed;
    ref.quality = ModelQuality(session, job, *fx.data[job.program.dataset],
                               req.args);
  }
  if (simulate) {
    auto fresh = session->CompileSource(req.source, req.args);
    if (!fresh.ok()) {
      ref.status = fresh.status();
      return ref;
    }
    Result<SimResult> sim =
        session->Simulate(fresh->get(), ref.config, SimOptions(), req.oracle);
    if (!sim.ok()) {
      ref.status = sim.status();
      return ref;
    }
    ref.sim_elapsed = sim->elapsed_seconds;
  }
  return ref;
}

struct CheckResult {
  bool ok = true;
  std::vector<std::string> failures;
  double plan_est_s = 0.0;
  double plan_sim_s = 0.0;
  void Fail(const std::string& why) {
    ok = false;
    if (failures.size() < 8) failures.push_back(why);
  }
};

// Checks every record against its reference, computed after the timed
// phases in uncached sessions (real_train: the serial engine).
// serve_mix and real_train jobs repeat a fixed program set, so one
// reference per program serves all of its jobs; every cold_optimize job
// is its own program. Also computes the plan-quality metrics: the mean
// best_cost and simulated elapsed time of the chosen configurations
// over the program set (cold_optimize: over the first kPlanPrefix jobs).
CheckResult CheckRecords(const Workbench& wb, const Fixture& fx,
                         const std::vector<const JobRecord*>& records) {
  CheckResult check;
  const pb::Workload w = wb.opts.workload;
  const bool per_job = w == pb::Workload::kColdOptimize;
  std::vector<pb::Job> targets;
  if (per_job) {
    for (int64_t i = 0; i < kPlanPrefix; ++i) targets.push_back(wb.JobAt(i));
    std::set<int64_t> seen;
    for (const JobRecord* r : records) {
      if (r->job.index >= kPlanPrefix && seen.insert(r->job.index).second) {
        targets.push_back(r->job);
      }
    }
  } else {
    for (int k = 0; k < static_cast<int>(wb.programs.size()); ++k) {
      pb::Job job;
      job.program_id = k;
      job.program = wb.programs[k];
      targets.push_back(job);
    }
  }
  std::vector<Reference> refs(targets.size());
  std::map<int64_t, size_t> by_index;  // cold_optimize: job index -> ref
  for (size_t i = 0; i < targets.size(); ++i) {
    if (per_job) by_index.emplace(targets[i].index, i);
  }
  ParallelFor(
      static_cast<int64_t>(targets.size()), wb.conc.nproc,
      [&](int64_t i, Session* session) {
        const bool plan_member = !per_job || targets[i].index < kPlanPrefix;
        refs[i] = ComputeReference(wb, fx, targets[i], plan_member, session);
      },
      [&] {
        Session session(ClusterConfig::PaperCluster(),
                        SessionOptions().WithPlanCacheEnabled(false));
        if (w == pb::Workload::kServeMix) {
          for (const pb::Job& job : WarmupJobs(wb)) {
            RegisterInputs(&session, InputsFor(w, job, wb.conc.window));
          }
        } else if (w == pb::Workload::kRealTrain) {
          for (int d = 0; d < pb::kDataSets; ++d) {
            const std::string dir = "/data/d" + std::to_string(d);
            session.RegisterMatrix(dir + "/X", fx.data[d]->x);
            for (int s = 0; s < 5; ++s) {
              session.RegisterMatrix(dir + "/" + LabelName(s),
                                     Label(*fx.data[d], s));
            }
          }
        }
        return session;
      });

  double est_sum = 0.0;
  double sim_sum = 0.0;
  int64_t plan_n = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const Reference& ref = refs[i];
    const std::string& label = targets[i].program.label;
    if (!ref.status.ok()) {
      check.Fail("reference " + label + ": " + ref.status.ToString());
      continue;
    }
    if (!std::isnan(ref.quality)) {
      std::printf("quality %-24s %.6f\n", label.c_str(), ref.quality);
    }
    if (!QualityHolds(pb::ScriptNames()[targets[i].program.script],
                      ref.quality)) {
      check.Fail("model quality " + label + ": " +
                 std::to_string(ref.quality));
    }
    if (!per_job || targets[i].index < kPlanPrefix) {
      est_sum += ref.best_cost;
      sim_sum += ref.sim_elapsed;
      plan_n++;
    }
  }
  check.plan_est_s = plan_n > 0 ? est_sum / plan_n : 0.0;
  check.plan_sim_s = plan_n > 0 ? sim_sum / plan_n : 0.0;

  for (const JobRecord* r : records) {
    if (!r->ok) {
      check.Fail("job " + std::to_string(r->job.index) + " failed: " +
                 r->error);
      continue;
    }
    const size_t at = per_job ? by_index.at(r->job.index)
                              : static_cast<size_t>(r->job.program_id);
    const Reference& ref = refs[at];
    if (!ref.status.ok()) continue;
    const std::string what =
        "job " + std::to_string(r->job.index) + " (" + r->job.program.label +
        ")";
    if (!SameConfig(r->config, ref.config)) {
      check.Fail(what + ": config " + r->config.ToString() + " != " +
                 ref.config.ToString());
    }
    if (r->best_cost != ref.best_cost) {
      check.Fail(what + ": best_cost " + Number(r->best_cost) + " != " +
                 Number(ref.best_cost));
    }
    if (w == pb::Workload::kServeMix && r->sim_elapsed != ref.sim_elapsed) {
      check.Fail(what + ": simulated elapsed " + Number(r->sim_elapsed) +
                 " != " + Number(ref.sim_elapsed));
    }
    if (w == pb::Workload::kRealTrain && r->printed != ref.printed) {
      check.Fail(what + ": printed output differs from the serial engine");
    }
  }
  return check;
}

// ---- kernel probes ---------------------------------------------------------

// Median seconds per call of `fn` over >= 5 calls and >= 0.1 s.
double TimePerCall(const std::function<bool()>& fn) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < 5 || SecondsSince(start) < 0.1) {
    const Clock::time_point t0 = Clock::now();
    if (!fn()) Die("kernel probe failed");
    times.push_back(SecondsSince(t0));
  }
  return pb::Quantile(times, 0.5);
}

struct KernelRates {
  double matmult_gflops = 0.0;
  double tsmm_gflops = 0.0;
  double sparse_matmult_gflops = 0.0;
  double elementwise_gbps = 0.0;
  double rowsums_gbps = 0.0;
  double memcpy_gbps = 0.0;
};

// Times the matrix kernels on real_train's operand shapes (the dense
// and sparse data sets). FLOPs and bytes are computed from shapes and
// nnz, not counted: 2 FLOPs per multiply-add (t(X) %*% X counted as a
// full product), bytes as operands read plus result written.
KernelRates ProbeKernels(uint64_t seed) {
  const std::vector<pb::Program> programs =
      pb::ProgramSet(pb::Workload::kRealTrain, seed);
  const pb::Program& dense = programs[1];
  const pb::Program& sparse = programs[2];
  Random rng(pb::Mix64(seed ^ 0xC0FFEE));
  const MatrixBlock xd =
      MatrixBlock::Rand(dense.rows, dense.cols, 1.0, -1, 1, &rng);
  const MatrixBlock xs =
      MatrixBlock::Rand(sparse.rows, sparse.cols, sparse.sparsity, -1, 1, &rng);
  const MatrixBlock vd = MatrixBlock::Rand(dense.cols, 1, 1.0, -1, 1, &rng);
  const MatrixBlock vs = MatrixBlock::Rand(sparse.cols, 1, 1.0, -1, 1, &rng);
  const double r = static_cast<double>(dense.rows);
  const double c = static_cast<double>(dense.cols);
  const double cells_bytes = r * c * 8.0;
  KernelRates k;
  k.matmult_gflops = 2.0 * r * c / 1e9 /
                     TimePerCall([&] { return MatMult(xd, vd).ok(); });
  k.tsmm_gflops = 2.0 * r * c * c / 1e9 / TimePerCall([&] {
                    return TransposeSelfMatMult(xd, true).ok();
                  });
  k.sparse_matmult_gflops =
      2.0 * static_cast<double>(xs.ComputeNnz()) / 1e9 /
      TimePerCall([&] { return MatMult(xs, vs).ok(); });
  k.elementwise_gbps = 3.0 * cells_bytes / 1e9 / TimePerCall([&] {
                         return ElementwiseBinary(BinOp::kMul, xd, xd).ok();
                       });
  k.rowsums_gbps = (cells_bytes + r * 8.0) / 1e9 / TimePerCall([&] {
                     return AggregateAxis(AggOp::kSum, AggDir::kRow, xd).ok();
                   });
  // Host roofline reference: copy 64 MiB (bytes read + written).
  const size_t n = size_t{64} << 20;
  std::vector<char> src(n, 1);
  std::vector<char> dst(n, 0);
  k.memcpy_gbps = 2.0 * static_cast<double>(n) / 1e9 / TimePerCall([&] {
                    std::memcpy(dst.data(), src.data(), n);
                    src[dst[n / 2] & 1] ^= 1;  // keep the copy observable
                    return true;
                  });
  return k;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct PhaseStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  double jobs_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

PhaseStats PhaseOf(const LoopResult& loop) {
  PhaseStats s;
  std::vector<double> latencies_ms;
  std::vector<double> slice_jobs(kRateSlices, 0.0);
  const double slice_s = loop.wall_s / kRateSlices;
  for (const JobRecord& r : loop.records) {
    latencies_ms.push_back(r.ok ? r.latency_s * 1e3 : kInf);
    if (r.ok) {
      const int slice = static_cast<int>(r.done_at_s / slice_s);
      slice_jobs[std::min(slice, kRateSlices - 1)] += 1.0;
    } else {
      s.failed++;
    }
  }
  s.attempted = static_cast<int64_t>(loop.records.size());
  s.jobs_per_s = pb::Quantile(slice_jobs, 0.5) / slice_s;
  s.p50_ms = pb::Quantile(latencies_ms, 0.50);
  s.p95_ms = pb::Quantile(latencies_ms, 0.95);
  return s;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Per-layer metrics of the traced replay: span latency, self-time share
// of all job time, and per-job means of the optimizer and engine
// counters the calls return.
void AddReplayMetrics(const std::vector<pb::Span>& spans,
                      const LoopResult& replay, std::vector<Metric>* out) {
  const std::vector<int64_t> self = pb::SelfTimesNs(spans);
  std::vector<std::vector<double>> ms(kLayers);
  std::vector<double> self_ns(kLayers, 0.0);
  double total_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& s = spans[i];
    ms[s.layer].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    self_ns[s.layer] += static_cast<double>(self[i]);
    if (s.layer == kJobLayer) {
      total_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  auto share = [&](int layer) {
    return total_ns > 0 ? self_ns[layer] / total_ns : 0.0;
  };
  const int64_t n = static_cast<int64_t>(replay.records.size());
  int64_t cost = 0, recompiles = 0, tasks = 0, par = 0, ser = 0, spill = 0,
          high_water = 0;
  for (const JobRecord& r : replay.records) {
    cost += r.cost_invocations;
    recompiles += r.block_recompiles;
    tasks += r.exec.tasks_scheduled;
    par += r.exec.parallel_blocks;
    ser += r.exec.serial_blocks;
    spill += r.exec.spill_bytes;
    high_water = std::max(high_water, r.exec.high_water_bytes);
  }
  const std::pair<const char*, int> layers[] = {{"compile", kCompile},
                                                {"core.optimize", kOptimize},
                                                {"mrsim.simulate", kSimulate},
                                                {"exec.execute", kExecute}};
  for (const auto& [name, layer] : layers) {
    out->push_back({std::string(name) + ".ms_p50", "ms",
                    pb::Quantile(ms[layer], 0.5)});
    out->push_back({std::string(name) + ".share", "fraction", share(layer)});
  }
  out->push_back({"job.self.share", "fraction", share(kJobLayer)});
  out->push_back({"core.cost_invocations", "count/job", Ratio(cost, n)});
  out->push_back({"core.block_recompiles", "count/job", Ratio(recompiles, n)});
  out->push_back({"exec.tasks_scheduled", "count/job", Ratio(tasks, n)});
  out->push_back({"exec.parallel_blocks", "count/job", Ratio(par, n)});
  out->push_back({"exec.serial_blocks", "count/job", Ratio(ser, n)});
  out->push_back({"exec.spill_bytes", "bytes/job", Ratio(spill, n)});
  out->push_back({"exec.high_water_bytes", "bytes",
                  static_cast<double>(high_water)});
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  Workbench wb;
  wb.opts = opts;
  wb.conc = ChooseConcurrency();
  for (const std::string& name : pb::ScriptNames()) {
    std::ifstream in(opts.scripts_dir + "/" + name);
    if (!in.good()) Die("cannot read " + opts.scripts_dir + "/" + name);
    std::ostringstream ss;
    ss << in.rdbuf();
    wb.sources.push_back(ss.str());
  }
  wb.programs = pb::ProgramSet(opts.workload, opts.seed);
  const uint64_t stream_hash =
      pb::StreamHash(opts.workload, opts.seed, kHashedJobs);
  std::printf("host: %s\n",
              HostFingerprint(opts, wb.conc, stream_hash).c_str());
  std::fflush(stdout);

  // Set-up, several times; the last fixture serves the timed phase.
  std::vector<double> setup_times;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    fx = SetUp(wb);
    setup_times.push_back(SecondsSince(t0));
  }
  const double setup_s = pb::Quantile(setup_times, 0.5);

  // Timed phase: the closed loop against the job service.
  const PlanCache::Stats cache_before = fx->cache->stats();
  const int64_t pool_hits0 = CounterValue("serve.program_pool_hits");
  const int64_t pool_misses0 = CounterValue("serve.program_pool_misses");
  // A traced run splits its time between the service and the replay.
  const double phase_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const LoopResult timed = RunClosedLoop(
      wb.conc.window, [&](int64_t i) { return wb.JobAt(i); },
      ServiceSubmitter(fx->service.get(), wb), phase_s, kMinJobs,
      std::numeric_limits<int64_t>::max());
  const PlanCache::Stats cache_after = fx->cache->stats();
  const int64_t pool_hits =
      CounterValue("serve.program_pool_hits") - pool_hits0;
  const int64_t pool_misses =
      CounterValue("serve.program_pool_misses") - pool_misses0;
  const PhaseStats phase = PhaseOf(timed);
  // Read before the replay and the checks, which are not the service's
  // memory.
  const double peak_rss_mb = PeakRssMb();

  // Traced replay of the same stream in a fresh set-up.
  LoopResult replay;
  std::vector<pb::Span> spans;
  std::unique_ptr<Fixture> replay_fx;
  if (opts.trace) {
    replay_fx = SetUp(wb);
    TracedReplay tracer(replay_fx->service->session(),
                        wb.ServiceOptions(replay_fx->cache.get()),
                        wb.conc.workers);
    replay = RunClosedLoop(
        wb.conc.window, [&](int64_t i) { return wb.JobAt(i); },
        [&](const pb::Job& job) -> Result<Awaiter> {
          return tracer.Submit(wb.RequestFor(job));
        },
        phase_s, kMinJobs, std::numeric_limits<int64_t>::max());
    tracer.Stop();
    spans = tracer.MergedSpans();
  }

  // Checks, after all timing.
  std::vector<const JobRecord*> checked;
  for (const JobRecord& r : timed.records) checked.push_back(&r);
  for (const JobRecord& r : replay.records) checked.push_back(&r);
  CheckResult check = CheckRecords(wb, *fx, checked);
  if (!pb::TailReportable(phase.attempted, 950)) {
    check.Fail("too few samples for p95: " + std::to_string(phase.attempted));
  }
  if (phase.failed > 0) check.Fail("failed or rejected jobs in the timed run");

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = {{"jobs_per_s", "1/s", phase.jobs_per_s},
               {"latency_p50_ms", "ms", phase.p50_ms},
               {"latency_p95_ms", "ms", phase.p95_ms},
               {"setup_s", "s", setup_s},
               {"plan_est_s", "s", check.plan_est_s},
               {"plan_sim_s", "s", check.plan_sim_s}};
  } else {
    const PhaseStats traced = PhaseOf(replay);
    AddReplayMetrics(spans, replay, &metrics);
    const int64_t lookups = (cache_after.program_hits -
                             cache_before.program_hits) +
                            (cache_after.program_misses -
                             cache_before.program_misses);
    const int64_t whatifs =
        (cache_after.whatif_hits - cache_before.whatif_hits) +
        (cache_after.whatif_misses - cache_before.whatif_misses);
    metrics.push_back(
        {"plan_cache.program_hit_rate", "fraction",
         Ratio(cache_after.program_hits - cache_before.program_hits,
               lookups)});
    metrics.push_back({"plan_cache.evictions", "count",
                       static_cast<double>(cache_after.evictions -
                                           cache_before.evictions)});
    metrics.push_back(
        {"plan_cache.whatif_hit_rate", "fraction",
         Ratio(cache_after.whatif_hits - cache_before.whatif_hits, whatifs)});
    std::vector<double> wait_ms;
    std::vector<double> run_ms;
    for (const JobRecord& r : timed.records) {
      if (!r.ok) continue;
      wait_ms.push_back(r.wait_s * 1e3);
      run_ms.push_back(r.run_s * 1e3);
    }
    metrics.push_back({"serve.wait_ms_p50", "ms", pb::Quantile(wait_ms, 0.5)});
    metrics.push_back({"serve.wait_ms_p95", "ms", pb::Quantile(wait_ms, 0.95)});
    metrics.push_back({"serve.run_ms_p50", "ms", pb::Quantile(run_ms, 0.5)});
    metrics.push_back({"serve.pool_hit_rate", "fraction",
                       Ratio(pool_hits, pool_hits + pool_misses)});
    metrics.push_back({"trace.overhead", "fraction",
                       1.0 - traced.jobs_per_s / phase.jobs_per_s});
    metrics.push_back({"error_rate", "fraction",
                       Ratio(phase.failed, phase.attempted)});
    metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb});
    const KernelRates k = ProbeKernels(opts.seed);
    std::printf("kernel rates below are computed from shapes and nnz\n");
    metrics.push_back({"matrix.matmult.gflops", "GFLOP/s", k.matmult_gflops});
    metrics.push_back({"matrix.tsmm.gflops", "GFLOP/s", k.tsmm_gflops});
    metrics.push_back({"matrix.sparse_matmult.gflops", "GFLOP/s",
                       k.sparse_matmult_gflops});
    metrics.push_back({"matrix.elementwise.gbps", "GB/s", k.elementwise_gbps});
    metrics.push_back({"matrix.rowsums.gbps", "GB/s", k.rowsums_gbps});
    metrics.push_back({"host.memcpy_gbps", "GB/s", k.memcpy_gbps});

    const std::string trace_path = opts.trace_dir + "/" +
                                   pb::WorkloadName(opts.workload) + "-seed" +
                                   std::to_string(opts.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(opts.trace_dir, ec);
    const Status st = WriteChromeTrace(trace_path, spans);
    std::printf("trace: %zu spans -> %s (%s)\n", spans.size(),
                trace_path.c_str(), st.ToString().c_str());
    std::printf("replay: %zu jobs, %.3f jobs/s\n", replay.records.size(),
                traced.jobs_per_s);
  }

  std::printf("jobs: attempted=%lld failed=%lld rejected=%lld wall=%.3fs; "
              "latency samples=%lld, %lld beyond p95\n",
              static_cast<long long>(phase.attempted),
              static_cast<long long>(phase.failed),
              static_cast<long long>(timed.rejected), timed.wall_s,
              static_cast<long long>(phase.attempted),
              static_cast<long long>(pb::SamplesBeyond(phase.attempted, 950)));
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : check.failures) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  std::printf("check: %s (%zu jobs against references)\n",
              check.ok ? "ok" : "FAILED", checked.size());

  std::ostringstream json;
  json << "{\"correct\": " << (check.ok ? "true" : "false")
       << ", \"attempted\": " << phase.attempted
       << ", \"failed\": " << phase.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << Number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return check.ok ? 0 : 1;
}
