// In-process workloads: cold_start (corpus, training, save and reload of
// the three NN models, then a short NetSyn_LCS search) and search_nn (a warm
// NetSyn_LCS search over many tasks with models trained by --prepare).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench.hpp"
#include "fitness/trainer.hpp"
#include "harness/registry.hpp"

namespace e2e {

using namespace netsyn;

namespace {

/// A run-level seed from the workload seed: keeps the user-visible seeds of
/// different workloads apart.
std::uint64_t runSeed(const Options& opt, std::uint64_t salt) {
  return opt.seed * 1000003ULL + salt;
}

/// The program suite a search workload runs: generated from one fixed seed,
/// so that runs with different --seed values measure the same programs and
/// differ in their search randomness (each task's runSeedRng follows
/// config.seed), as the paper's evaluation repeats runs over one test set.
std::vector<harness::TestProgram> fixedSuite(harness::ExperimentConfig cfg) {
  cfg.seed = 7;
  return harness::makeFullWorkload(cfg);
}

/// Search workload shape shared by the end-to-end task metrics.
void setSearchShape(harness::ExperimentConfig& cfg, std::size_t perLength,
                    std::size_t budget) {
  // Short targets: the small models solve a good share of them, so the
  // solve metrics rest on many solved tasks. One run per program, so that
  // the suite holds as many programs as the run has tasks.
  cfg.programLengths = {2, 3};
  cfg.programsPerLength = perLength;
  cfg.runsPerProgram = 1;
  cfg.searchBudget = budget;
}

/// The end-to-end metrics of an in-process search, where one job is one
/// synthesize call: job latency is task latency.
void recordSearchEndToEnd(Outcome& out, const SearchRun& run) {
  std::vector<double> seconds;
  for (const TaskResult& t : run.tasks) seconds.push_back(t.seconds);
  const SolveStats s = solveStats(run.tasks);
  const double n = static_cast<double>(run.tasks.size());
  out.endToEnd["candidates_per_s"] =
      static_cast<double>(s.candidates) / run.wallSeconds;
  out.endToEnd["tasks_per_s"] = n / run.wallSeconds;
  out.endToEnd["goodput_jobs_per_s"] = n / run.wallSeconds;
  out.endToEnd["task_p50_s"] = median(seconds);
  recordTail(out, "task_p90_s", seconds, 90);
  out.endToEnd["job_p50_s"] = median(seconds);
  recordTail(out, "job_p95_s", seconds, 95);
  out.endToEnd["solved_fraction"] = s.solvedFraction;
  out.endToEnd["mean_candidates_solved"] = s.meanCandidatesSolved;
}

/// Counts every task and every scalar-oracle rejection.
void countSearch(Outcome& out, const SearchRun& run, const char* pass) {
  out.attempted += run.tasks.size();
  for (std::size_t i = 0; i < run.badSolutions; ++i)
    out.fail(std::string(pass) + ": a found solution fails the spec");
}

/// The traced pass must retrace the untraced one exactly.
void checkFaithful(Outcome& out, const SearchRun& plain,
                   const SearchRun& traced) {
  if (plain.tasks.size() != traced.tasks.size()) {
    out.fail("traced pass ran a different number of tasks");
    return;
  }
  for (std::size_t i = 0; i < plain.tasks.size(); ++i)
    if (!sameOutcome(plain.tasks[i], traced.tasks[i]))
      out.fail("traced pass diverged on task " + std::to_string(i));
}

struct ModelKind {
  const char* tag;
  fitness::HeadKind head;
  fitness::BalanceMetric metric;
};

/// The three models harness::loadOrTrainAll builds, in its order.
const ModelKind kModels[] = {
    {"cf", fitness::HeadKind::Classifier, fitness::BalanceMetric::CF},
    {"lcs", fitness::HeadKind::Classifier, fitness::BalanceMetric::LCS},
    {"fp", fitness::HeadKind::Multilabel, fitness::BalanceMetric::CF},
};

/// Loads the three models from the cache with the calls
/// harness::loadOrTrainAll makes, and returns how many did not come from
/// it. loadOrTrain retrains a model whose cache file fails to load, quietly
/// and from the same seeds, so a broken load would otherwise pass unseen.
std::size_t loadCached(const harness::ExperimentConfig& cfg,
                       harness::TrainedModels& models) {
  std::shared_ptr<fitness::NnffModel>* slots[] = {&models.cf, &models.lcs,
                                                  &models.fp};
  std::size_t misses = 0;
  for (std::size_t m = 0; m < 3; ++m) {
    *slots[m] = harness::buildModel(cfg, kModels[m].head);
    if (!harness::loadOrTrain(cfg, **slots[m], kModels[m].metric,
                              kModels[m].tag, /*quiet=*/true))
      ++misses;
  }
  return misses;
}

// ---- cold_start -------------------------------------------------------------

/// One cold start: from an empty model dir to three reloaded models.
struct ColdPass {
  double seconds = 0.0;
  double corpusSeconds = 0.0;
  double trainSeconds = 0.0;
  double saveSeconds = 0.0;
  double loadSeconds = 0.0;
  std::size_t corpusSamples = 0;
  std::size_t trainSamples = 0;  ///< samples processed across all epochs
  std::vector<double> epochSeconds;
  double valAccuracy = 0.0;  ///< final-epoch mean over the three models
  std::size_t modelBytes = 0;
  harness::TrainedModels trained;
  harness::TrainedModels reloaded;
  std::size_t reloadMisses = 0;  ///< models the reload did not take from disk
  /// The first validation samples of each model's corpus, for the reload
  /// check.
  std::vector<std::vector<fitness::Sample>> probes;
};

ColdPass coldPass(const harness::ExperimentConfig& cfg) {
  // The same calls harness::loadOrTrain makes for a missing cache entry,
  // one model after the other, then a reload through the cache.
  std::filesystem::remove_all(cfg.modelDir);
  ColdPass pass;
  CpuRotation rotation;  // one step per model and per epoch
  const auto start = Clock::now();
  std::shared_ptr<fitness::NnffModel>* slots[] = {
      &pass.trained.cf, &pass.trained.lcs, &pass.trained.fp};
  for (std::size_t m = 0; m < 3; ++m) {
    const ModelKind& kind = kModels[m];
    rotation.next();
    auto model = harness::buildModel(cfg, kind.head);

    auto t0 = Clock::now();
    const auto trainSet = harness::buildCorpus(cfg, cfg.trainingPrograms,
                                               kind.metric, cfg.seed + 17);
    const auto valSet = harness::buildCorpus(cfg, cfg.validationPrograms,
                                             kind.metric, cfg.seed + 31);
    pass.corpusSeconds += secondsSince(t0);
    pass.corpusSamples += trainSet.size() + valSet.size();

    fitness::TrainConfig tc = cfg.trainConfig;
    tc.labelMetric = kind.metric;
    fitness::Trainer trainer(tc);
    t0 = Clock::now();
    auto epochStart = t0;
    double lastAccuracy = 0.0;
    trainer.train(*model, trainSet, valSet,
                  [&](const fitness::EpochStats& e) {
                    pass.epochSeconds.push_back(secondsSince(epochStart));
                    lastAccuracy = e.valAccuracy;
                    rotation.next();
                    epochStart = Clock::now();
                  });
    pass.trainSeconds += secondsSince(t0);
    pass.trainSamples += trainSet.size() * tc.epochs;
    pass.valAccuracy += lastAccuracy / 3.0;

    t0 = Clock::now();
    std::filesystem::create_directories(cfg.modelDir);
    const std::string path = harness::modelCachePath(cfg, kind.tag);
    model->save(path);
    pass.saveSeconds += secondsSince(t0);
    pass.modelBytes += std::filesystem::file_size(path);

    pass.probes.emplace_back(valSet.begin(),
                             valSet.begin() + std::min<std::size_t>(
                                                  valSet.size(), 16));
    *slots[m] = std::move(model);
  }
  const auto t0 = Clock::now();
  pass.reloadMisses = loadCached(cfg, pass.reloaded);
  pass.loadSeconds = secondsSince(t0);
  pass.seconds = secondsSince(start);
  return pass;
}

/// Every model must come back from its cache file and score
/// bit-identically to the trained one.
bool reloadMatches(const ColdPass& pass) {
  if (pass.reloadMisses > 0) return false;
  const harness::TrainedModels* sides[] = {&pass.trained, &pass.reloaded};
  for (std::size_t m = 0; m < 3; ++m) {
    std::vector<float> out[2];
    for (const fitness::Sample& s : pass.probes[m]) {
      for (int side = 0; side < 2; ++side) {
        const fitness::NnffModel& model = m == 0   ? *sides[side]->cf
                                          : m == 1 ? *sides[side]->lcs
                                                   : *sides[side]->fp;
        out[side] = kModels[m].head == fitness::HeadKind::Multilabel
                        ? model.forwardIOOnlyFast(s.spec)
                        : model.forwardFast(s.spec, s.candidate, s.traces);
      }
      if (out[0].size() != out[1].size() ||
          std::memcmp(out[0].data(), out[1].data(),
                      out[0].size() * sizeof(float)) != 0)
        return false;
    }
  }
  return true;
}

}  // namespace

Outcome runColdStart(const Options& opt) {
  Outcome out;
  // The training corpus has one seed for every run, so every run trains
  // the same models and the cold start repeats the same work; at this small
  // scale, corpora of different seeds train models of very different
  // quality.
  harness::ExperimentConfig train = baseConfig(2024);
  train.trainingPrograms = opt.tiny ? 24 : 160;
  train.validationPrograms = opt.tiny ? 12 : 100;
  train.trainConfig.epochs = 2;
  train.modelDir = opt.workDir + "/cold_models";
  // The closing search: one worker, many small tasks; --seed drives its
  // search randomness.
  harness::ExperimentConfig search = train;
  search.seed = runSeed(opt, 11);
  setSearchShape(search, opt.tiny ? 8 : 150, opt.tiny ? 150 : 300);
  const std::size_t reps = 3;

  std::vector<double> setup, rate;
  ColdPass last;
  for (std::size_t r = 0; r < reps; ++r) {
    ColdPass pass = coldPass(train);
    ++out.attempted;
    if (!reloadMatches(pass))
      out.fail("reloaded models failed to load or score differently from "
               "the trained ones");
    if (r > 0 && (pass.valAccuracy != last.valAccuracy ||
                  pass.modelBytes != last.modelBytes))
      out.fail("repeated cold start trained different models");
    setup.push_back(pass.seconds);
    rate.push_back(static_cast<double>(pass.trainSamples) /
                   pass.trainSeconds);
    last = std::move(pass);
  }

  const auto workload = fixedSuite(search);
  const SearchRun run = runSearch(
      harness::makeNetSyn(search, last.reloaded, harness::NetSynVariant::LCS),
      workload, search, nullptr, /*rotateCpus=*/true);
  countSearch(out, run, "cold_start search");

  out.endToEnd["setup_s"] = median(setup);
  recordSearchEndToEnd(out, run);
  out.note("setup_s: median of " + std::to_string(reps) + " cold starts");

  if (!opt.trace) return out;

  // Traced pass: one more cold start with its phases timed, and the same
  // search through the timing decorators.
  const auto t0 = Clock::now();
  const ColdPass traced = coldPass(train);
  const double tracedSeconds = secondsSince(t0);
  ++out.attempted;
  if (!reloadMatches(traced))
    out.fail("traced cold start: reloaded models failed to load or score "
             "differently from the trained ones");
  if (traced.valAccuracy != last.valAccuracy ||
      traced.modelBytes != last.modelBytes)
    out.fail("traced cold start trained different models");
  FitnessCounters fit;
  SearchCounters counters;
  const harness::TrainedModels clones = traced.reloaded.clone();
  const SearchRun tracedRun =
      runSearch(tracedNetSynLcs(search, clones, fit, counters), workload,
                search, nullptr, /*rotateCpus=*/true);
  countSearch(out, tracedRun, "traced cold_start search");
  checkFaithful(out, run, tracedRun);

  auto& L = out.perLayer;
  L["harness.corpus_s"] = traced.corpusSeconds;
  L["harness.corpus_samples"] = static_cast<double>(traced.corpusSamples);
  L["harness.model_load_s"] = traced.loadSeconds;
  L["fitness.train_s"] = traced.trainSeconds;
  L["fitness.train_epoch_p50_s"] = median(traced.epochSeconds);
  L["fitness.train_samples"] = static_cast<double>(traced.trainSamples);
  L["fitness.train_samples_per_s"] = median(rate);
  L["fitness.val_accuracy"] = traced.valAccuracy;
  L["nn.model_save_s"] = traced.saveSeconds;
  L["nn.model_bytes"] = static_cast<double>(traced.modelBytes);
  recordSearchLayers(out, fit, counters);
  const auto memo = clones.lcs->memoStats();
  const double lookups =
      static_cast<double>(memo.traceHits + memo.traceMisses);
  L["fitness.trace_memo_hit_ratio"] =
      lookups > 0 ? static_cast<double>(memo.traceHits) / lookups : 0.0;
  L["fitness.trace_memo_misses"] = static_cast<double>(memo.traceMisses);
  L["trace.overhead_ratio"] = (tracedSeconds + tracedRun.wallSeconds) /
                              (median(setup) + run.wallSeconds);
  return out;
}

Outcome runSearchNn(const Options& opt) {
  Outcome out;
  harness::ExperimentConfig cfg = preparedModelConfig(opt.modelDir);
  cfg.seed = runSeed(opt, 23);
  setSearchShape(cfg, opt.tiny ? 8 : scaled(opt, /*perSecond=*/12, 100),
                 opt.tiny ? 200 : 600);
  for (const char* tag : {"cf", "lcs", "fp"})
    if (!std::filesystem::exists(harness::modelCachePath(cfg, tag))) {
      out.fail(std::string("no prepared model ") +
               harness::modelCachePath(cfg, tag) + " (run --prepare)");
      out.attempted = 1;
      return out;
    }

  // Set-up: load the three models from the cache and generate the program
  // suite, about 60 ms. The first set-up feeds the search; about 30 more run
  // in between its tasks, and setup_s is the median of them all.
  std::vector<double> load, gen;
  harness::TrainedModels models;
  std::vector<harness::TestProgram> workload;
  std::size_t loadMisses = 0;
  Interleaved setups;
  setups.once = [&]() {
    const auto t0 = Clock::now();
    harness::TrainedModels loaded;
    loadMisses += loadCached(cfg, loaded);
    load.push_back(secondsSince(t0));
    const auto t1 = Clock::now();
    std::vector<harness::TestProgram> suite = fixedSuite(cfg);
    gen.push_back(secondsSince(t1));
    const double seconds = secondsSince(t0);
    if (!models.lcs) {
      models = std::move(loaded);
      workload = std::move(suite);
    }
    return seconds;
  };
  setups.samples.push_back(setups.once());
  const std::size_t tasks = workload.size() * cfg.runsPerProgram;
  setups.every = std::max<std::size_t>(1, tasks / (opt.tiny ? 3 : 30));

  // Each pass searches with fresh clones: a warm trace memo from an earlier
  // pass would make the later pass cheaper.
  const harness::TrainedModels plainModels = models.clone();
  const SearchRun run = runSearch(
      harness::makeNetSyn(cfg, plainModels, harness::NetSynVariant::LCS),
      workload, cfg, &setups, /*rotateCpus=*/true);
  countSearch(out, run, "search_nn");
  if (loadMisses > 0)
    out.fail("search_nn set-up: a prepared model did not load from disk");
  out.endToEnd["setup_s"] = median(setups.samples);
  out.note("setup_s: median of " + std::to_string(setups.samples.size()) +
           " set-ups, spread over the search");
  recordSearchEndToEnd(out, run);

  if (!opt.trace) return out;

  FitnessCounters fit;
  SearchCounters search;
  const harness::TrainedModels tracedModels = models.clone();
  const SearchRun traced = runSearch(
      tracedNetSynLcs(cfg, tracedModels, fit, search), workload, cfg,
      nullptr, /*rotateCpus=*/true);
  countSearch(out, traced, "traced search_nn");
  checkFaithful(out, run, traced);
  const auto plainMemo = plainModels.lcs->memoStats();
  const auto memo = tracedModels.lcs->memoStats();
  if (plainMemo.traceHits != memo.traceHits ||
      plainMemo.traceMisses != memo.traceMisses)
    out.fail("traced pass changed the trace-memo counts");

  auto& L = out.perLayer;
  L["harness.workload_s"] = median(gen);
  L["harness.model_load_s"] = median(load);
  recordSearchLayers(out, fit, search);
  const double lookups =
      static_cast<double>(memo.traceHits + memo.traceMisses);
  L["fitness.trace_memo_hit_ratio"] =
      lookups > 0 ? static_cast<double>(memo.traceHits) / lookups : 0.0;
  L["fitness.trace_memo_misses"] = static_cast<double>(memo.traceMisses);
  L["trace.overhead_ratio"] = traced.wallSeconds / run.wallSeconds;
  return out;
}

}  // namespace e2e
