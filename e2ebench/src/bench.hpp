// Shared pieces of the NetSyn end-to-end benchmark: run options, the metric
// catalogue, statistics, and the checked search runner every workload uses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/method.hpp"
#include "harness/config.hpp"
#include "harness/models.hpp"
#include "harness/workload.hpp"
#include "trace.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      ///< self-test size: each phase well under a second
  std::string modelDir;   ///< models trained by --prepare (search_nn)
  std::string workDir;    ///< state dirs, sockets, cold-start model caches
};

/// A workload size proportional to --seconds, calibrated at `perSecond`
/// units per second on a 4-core x86-64 host, and never below `atLeast` (the
/// tail percentiles need their samples).
std::size_t scaled(const Options& opt, double perSecond, std::size_t atLeast);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one, from its untraced
/// pass.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics: every workload reports every one, from its traced
/// pass; a layer the workload never enters reads 0.
extern const std::vector<MetricSpec> kPerLayer;

/// One run's result.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> perLayer;
  /// Human-readable lines printed before the JSON result (sample counts,
  /// which percentile a tail metric is).
  std::vector<std::string> notes;

  /// Records one failed operation with its reason (stderr).
  void fail(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
};

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);

/// Records `<name>` as the `pct` percentile of `xs` and notes the sample
/// count. A percentile needs at least ten samples beyond it; the workload
/// sizes guarantee that outside --tiny runs, and the note says when not.
void recordTail(Outcome& out, const std::string& name,
                const std::vector<double>& xs, double pct);

/// Set-up of a warm workload takes milliseconds, too short to time once on
/// a host whose speed drifts by tens of percent: `once` (one set-up,
/// returning its seconds) is repeated until the samples add up to a second
/// and a half (at least 25 and at most 40 of them), and their median is
/// returned and noted with the sample count.
double medianSetup(const Options& opt, Outcome& out,
                   const std::function<double()>& once);

// ---- host -------------------------------------------------------------------

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Block time of a frozen reference kernel (a float matrix-vector product),
/// the mean over the CPUs of each CPU's median. It never changes, so it
/// tracks only the host's speed at the time of the run.
double hostProbeSeconds();

/// Steps the calling thread round the CPUs it may run on, one CPU per
/// next(), and gives it back its whole affinity mask when destroyed. On a
/// virtual machine that shares its cores with other tenants, each core runs
/// at its own speed, which drifts over minutes; a single-threaded run the
/// scheduler leaves on one core measures that core. Stepped round all of
/// them, a reference kernel's 10-second means spread by about 5% instead of
/// 20% (interquartile range over median) on a 4-core x86-64 virtual machine.
/// Threads started while it holds the thread on one CPU inherit that CPU, so
/// it is used only around single-threaded work.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();
  /// Number of CPUs it steps round (0 if the affinity mask was unreadable).
  std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

// ---- searching --------------------------------------------------------------

/// One (program, run) outcome in the workload's task order
/// (program-major, run-minor).
struct TaskResult {
  bool found = false;
  std::size_t candidates = 0;
  std::size_t generations = 0;
  double seconds = 0.0;
};

/// Deterministic fields equal (wall-clock seconds ignored).
bool sameOutcome(const TaskResult& a, const TaskResult& b);

struct SearchRun {
  std::vector<TaskResult> tasks;
  double wallSeconds = 0.0;
  /// Found solutions that the scalar dsl::eval oracle rejects.
  std::size_t badSolutions = 0;
};

/// Work timed in between the tasks of a search: `once` runs before every
/// `every`-th task and returns its seconds, which land in `samples` and stay
/// out of the search's wall time. Spread over the whole search, the samples
/// see the host at every point of it rather than during one second of it.
struct Interleaved {
  std::function<double()> once;
  std::size_t every = 1;
  std::vector<double> samples;
};

/// Runs `method` over every (program, run) task of `workload` on the calling
/// thread through harness::runMethod (tasks seeded by runSeedRng), and
/// re-checks every found solution with dsl::satisfiesSpec. With
/// `rotateCpus`, each task starts on the next CPU (CpuRotation).
SearchRun runSearch(const netsyn::baselines::MethodPtr& method,
                    const std::vector<netsyn::harness::TestProgram>& workload,
                    const netsyn::harness::ExperimentConfig& config,
                    Interleaved* between = nullptr, bool rotateCpus = false);

/// The NetSyn_LCS method makeNetSyn builds, with the LCS fitness and the
/// method itself wrapped in timing decorators.
netsyn::baselines::MethodPtr tracedNetSynLcs(
    const netsyn::harness::ExperimentConfig& config,
    const netsyn::harness::TrainedModels& models, FitnessCounters& fit,
    SearchCounters& search);

/// The Edit method makeEdit builds, decorated likewise.
netsyn::baselines::MethodPtr tracedEdit(
    const netsyn::harness::ExperimentConfig& config, FitnessCounters& fit,
    SearchCounters& search);

/// Aggregates of a set of task outcomes, as the end-to-end metrics report
/// them.
struct SolveStats {
  double solvedFraction = 0.0;       ///< found tasks / tasks
  double meanCandidatesSolved = 0.0; ///< mean candidates over found tasks
  std::size_t candidates = 0;        ///< over every task
};
SolveStats solveStats(const std::vector<TaskResult>& tasks);

/// Writes the fitness.* / core.* per-layer metrics from decorator counters.
void recordSearchLayers(Outcome& out, const FitnessCounters& fit,
                        const SearchCounters& search);

// ---- configuration ----------------------------------------------------------

/// The ci-scale experiment configuration every workload starts from.
netsyn::harness::ExperimentConfig baseConfig(std::uint64_t seed);

/// The configuration of the models --prepare trains for search_nn.
netsyn::harness::ExperimentConfig preparedModelConfig(
    const std::string& modelDir);

/// Trains and caches search_nn's models under `modelDir`.
void prepareModels(const std::string& modelDir);

// ---- workloads --------------------------------------------------------------

Outcome runColdStart(const Options& opt);
Outcome runSearchNn(const Options& opt);
Outcome runServe(const Options& opt);
Outcome runFleet(const Options& opt);

}  // namespace e2e
