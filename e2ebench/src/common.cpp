#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "dsl/spec.hpp"
#include "fitness/edit.hpp"
#include "fitness/neural_fitness.hpp"
#include "harness/registry.hpp"
#include "harness/runner.hpp"

namespace e2e {

using namespace netsyn;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"candidates_per_s", "1/s"},
    {"tasks_per_s", "1/s"},
    {"task_p50_s", "s"},
    {"task_p90_s", "s"},
    {"job_p50_s", "s"},
    {"job_p95_s", "s"},
    {"goodput_jobs_per_s", "1/s"},
    {"solved_fraction", "fraction"},
    {"mean_candidates_solved", "count"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"harness.workload_s", "s"},
    {"harness.corpus_s", "s"},
    {"harness.corpus_samples", "count"},
    {"harness.model_load_s", "s"},
    {"fitness.train_s", "s"},
    {"fitness.train_epoch_p50_s", "s"},
    {"fitness.train_samples", "count"},
    {"fitness.train_samples_per_s", "1/s"},
    {"fitness.val_accuracy", "fraction"},
    {"nn.model_save_s", "s"},
    {"nn.model_bytes", "bytes"},
    {"fitness.score_s", "s"},
    {"fitness.score_calls", "count"},
    {"fitness.score_genes", "count"},
    {"fitness.encode_s", "s"},
    {"fitness.encode_captures", "count"},
    {"fitness.trace_memo_hit_ratio", "ratio"},
    {"fitness.trace_memo_misses", "count"},
    {"core.search_s", "s"},
    {"core.search_self_s", "s"},
    {"core.generations", "count"},
    {"core.ns_invocations", "count"},
    {"core.found_by_ns", "count"},
    {"service.submit_rtt_s", "s"},
    {"service.ping_rtt_s", "s"},
    {"service.busy_share", "ratio"},
    {"service.queue_depth_max", "count"},
    {"service.result_cache_hits", "count"},
    {"service.tasks_executed", "count"},
    {"service.plan_hit_ratio", "ratio"},
    {"service.checkpoints_written", "count"},
    {"service.durable_write_errors", "count"},
    {"fleet.claims_submitted", "count"},
    {"fleet.host_task_imbalance", "ratio"},
    {"fleet.poll_overhead_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"host.probe_s", "s"},
};

std::size_t scaled(const Options& opt, double perSecond, std::size_t atLeast) {
  const long n = std::lround(perSecond * opt.seconds);
  return std::max(atLeast, static_cast<std::size_t>(std::max(n, 0L)));
}

void Outcome::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "[e2e] FAILED: %s\n", why.c_str());
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

void recordTail(Outcome& out, const std::string& name,
                const std::vector<double>& xs, double pct) {
  const double beyond = static_cast<double>(xs.size()) * (1.0 - pct / 100.0);
  out.endToEnd[name] = quantile(xs, pct / 100.0);
  char line[160];
  std::snprintf(line, sizeof line, "%s: p%g of %zu samples (%.1f beyond)",
                name.c_str(), pct, xs.size(), beyond);
  out.note(line);
  if (beyond < 10.0)
    out.note(name + " has fewer than 10 samples beyond its percentile");
}

double medianSetup(const Options& opt, Outcome& out,
                   const std::function<double()>& once) {
  const double span = opt.tiny ? 0.02 : 1.5;
  const std::size_t minReps = opt.tiny ? 3 : 25;
  const std::size_t maxReps = opt.tiny ? 3 : 40;
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < minReps ||
         (total < span && samples.size() < maxReps)) {
    samples.push_back(once());
    total += samples.back();
  }
  out.note("setup_s: median of " + std::to_string(samples.size()) +
           " set-ups");
  return median(samples);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double hostProbeSeconds() {
  // Frozen reference kernel: keep it byte-for-byte as is, so that its time
  // measures the host and nothing else. A 128x128 float matrix-vector
  // product with eight partial sums per row: throughput-bound float
  // multiply-adds, as in the NN inference kernels. It steps round the CPUs
  // like the measured single-threaded phases, one block per step, and
  // averages the CPUs' median block times: the measured phases run on all
  // of them in turn.
  constexpr std::size_t n = 128;
  std::vector<float> w(n * n), x(n), y(n);
  for (std::size_t i = 0; i < n * n; ++i)
    w[i] = static_cast<float>(i % 97) * 0.001f;
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(i) * 0.01f;
  volatile float sink = 0.0f;
  CpuRotation rotation;
  const std::size_t cpus = std::max<std::size_t>(1, rotation.cpus());
  std::vector<std::vector<double>> times(cpus);
  for (std::size_t block = 0; block < 12 * cpus; ++block) {
    rotation.next();
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < 3200; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        float acc[8] = {};
        const float* row = &w[i * n];
        for (std::size_t j = 0; j < n; j += 8)
          for (std::size_t k = 0; k < 8; ++k) acc[k] += row[j + k] * x[j + k];
        y[i] = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
               ((acc[4] + acc[5]) + (acc[6] + acc[7]));
      }
      x[rep % n] += y[rep % n] * 1e-9f;
    }
    sink = sink + y[0];
    times[block % cpus].push_back(secondsSince(t0));
  }
  double sum = 0.0;
  for (const std::vector<double>& cpu : times) sum += median(cpu);
  return sum / static_cast<double>(cpus);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[step_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

bool sameOutcome(const TaskResult& a, const TaskResult& b) {
  return a.found == b.found && a.candidates == b.candidates &&
         a.generations == b.generations;
}

namespace {

/// Re-checks every found solution against the spec with the scalar
/// interpreter (dsl::satisfiesSpec runs dsl::eval), not the lane executor
/// the search itself graded with.
class CheckedMethod final : public baselines::Method {
 public:
  CheckedMethod(baselines::MethodPtr inner, Interleaved* between,
                CpuRotation* rotation)
      : inner_(std::move(inner)), between_(between), rotation_(rotation) {}

  std::string name() const override { return inner_->name(); }

  core::SynthesisResult synthesize(const dsl::Spec& spec,
                                   std::size_t targetLength,
                                   std::size_t budgetLimit,
                                   util::Rng& rng) override {
    if (between_ && calls_++ % between_->every == 0) {
      // A CPU step of its own: with `every` a multiple of the CPU count,
      // every sample would otherwise land on the same CPU.
      if (rotation_) rotation_->next();
      between_->samples.push_back(between_->once());
      interleavedSeconds += between_->samples.back();
    }
    if (rotation_) rotation_->next();
    core::SynthesisResult r =
        inner_->synthesize(spec, targetLength, budgetLimit, rng);
    if (r.found && !dsl::satisfiesSpec(r.solution, spec)) ++bad;
    return r;
  }

  std::size_t bad = 0;
  double interleavedSeconds = 0.0;

 private:
  baselines::MethodPtr inner_;
  Interleaved* between_;
  CpuRotation* rotation_;
  std::size_t calls_ = 0;
};

}  // namespace

SearchRun runSearch(const baselines::MethodPtr& method,
                    const std::vector<harness::TestProgram>& workload,
                    const harness::ExperimentConfig& config,
                    Interleaved* between, bool rotateCpus) {
  std::optional<CpuRotation> rotation;
  if (rotateCpus) rotation.emplace();
  CheckedMethod checked(method, between, rotation ? &*rotation : nullptr);
  SearchRun run;
  const auto t0 = Clock::now();
  const harness::MethodReport report =
      harness::runMethod(checked, workload, config, /*verbose=*/false);
  run.wallSeconds = secondsSince(t0) - checked.interleavedSeconds;
  run.badSolutions = checked.bad;
  for (const harness::ProgramResult& p : report.programs)
    for (const harness::RunRecord& r : p.runs)
      run.tasks.push_back(
          TaskResult{r.found, r.candidates, r.generations, r.seconds});
  return run;
}

baselines::MethodPtr tracedNetSynLcs(const harness::ExperimentConfig& config,
                                     const harness::TrainedModels& models,
                                     FitnessCounters& fit,
                                     SearchCounters& search) {
  // Mirrors harness::makeNetSyn(config, models, NetSynVariant::LCS) for the
  // single-population strategy the workloads run.
  auto fpProvider = std::make_shared<fitness::ProbMapFitness>(models.fp);
  auto lcs = std::make_shared<TracedFitness>(
      std::make_shared<fitness::NeuralFitness>(models.lcs, "NN_LCS"), fit);
  auto method = std::make_shared<baselines::SynthesizerMethod>(
      "NetSyn_LCS", harness::methodSearchConfig(config, "NetSyn_LCS"), lcs,
      fpProvider);
  return std::make_shared<TracedMethod>(method, search);
}

baselines::MethodPtr tracedEdit(const harness::ExperimentConfig& config,
                                FitnessCounters& fit, SearchCounters& search) {
  // Mirrors harness::makeEdit(config).
  const core::SynthesizerConfig sc =
      harness::methodSearchConfig(config, "Edit");
  auto edit = std::make_shared<TracedFitness>(
      std::make_shared<fitness::EditDistanceFitness>(sc.generator.domain),
      fit);
  auto method =
      std::make_shared<baselines::SynthesizerMethod>("Edit", sc, edit);
  return std::make_shared<TracedMethod>(method, search);
}

SolveStats solveStats(const std::vector<TaskResult>& tasks) {
  SolveStats s;
  std::size_t found = 0;
  std::size_t foundCandidates = 0;
  for (const TaskResult& t : tasks) {
    s.candidates += t.candidates;
    if (!t.found) continue;
    ++found;
    foundCandidates += t.candidates;
  }
  if (!tasks.empty())
    s.solvedFraction =
        static_cast<double>(found) / static_cast<double>(tasks.size());
  if (found > 0)
    s.meanCandidatesSolved =
        static_cast<double>(foundCandidates) / static_cast<double>(found);
  return s;
}

void recordSearchLayers(Outcome& out, const FitnessCounters& fit,
                        const SearchCounters& search) {
  out.perLayer["fitness.score_s"] = fit.scoreSeconds;
  out.perLayer["fitness.score_calls"] = static_cast<double>(fit.scoreCalls);
  out.perLayer["fitness.score_genes"] = static_cast<double>(fit.scoreGenes);
  out.perLayer["fitness.encode_s"] = fit.encodeSeconds;
  out.perLayer["fitness.encode_captures"] =
      static_cast<double>(fit.encodeCaptures);
  out.perLayer["core.search_s"] = search.searchSeconds;
  out.perLayer["core.search_self_s"] =
      search.searchSeconds - fit.scoreSeconds - fit.encodeSeconds;
  out.perLayer["core.generations"] = static_cast<double>(search.generations);
  out.perLayer["core.ns_invocations"] =
      static_cast<double>(search.nsInvocations);
  out.perLayer["core.found_by_ns"] = static_cast<double>(search.foundByNs);
}

harness::ExperimentConfig baseConfig(std::uint64_t seed) {
  harness::ExperimentConfig cfg = harness::ExperimentConfig::forScale("ci");
  cfg.seed = seed;
  cfg.workers = 1;
  return cfg;
}

harness::ExperimentConfig preparedModelConfig(const std::string& modelDir) {
  // A small fixed training scale: weak but useful models that train in
  // about a minute. The seed is fixed, so every run of one build searches
  // with the same models.
  harness::ExperimentConfig cfg = baseConfig(2021);
  cfg.trainingPrograms = 2400;
  cfg.validationPrograms = 120;
  cfg.trainConfig.epochs = 2;
  cfg.modelDir = modelDir;
  return cfg;
}

void prepareModels(const std::string& modelDir) {
  // harness::loadOrTrainAll trains the three models one after the other;
  // they are independent, so the build trains them on three threads.
  const harness::ExperimentConfig cfg = preparedModelConfig(modelDir);
  std::filesystem::create_directories(modelDir);
  harness::TrainedModels models;
  models.cf = harness::buildModel(cfg, fitness::HeadKind::Classifier);
  models.lcs = harness::buildModel(cfg, fitness::HeadKind::Classifier);
  models.fp = harness::buildModel(cfg, fitness::HeadKind::Multilabel);
  std::exception_ptr errors[3];
  const auto train = [&](std::size_t i, fitness::NnffModel& model,
                         fitness::BalanceMetric metric, const char* tag) {
    try {
      harness::loadOrTrain(cfg, model, metric, tag);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::thread cf(train, 0, std::ref(*models.cf), fitness::BalanceMetric::CF,
                 "cf");
  std::thread lcs(train, 1, std::ref(*models.lcs),
                  fitness::BalanceMetric::LCS, "lcs");
  train(2, *models.fp, fitness::BalanceMetric::CF, "fp");
  cf.join();
  lcs.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace e2e
