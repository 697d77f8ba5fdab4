// Chaos suite: with deterministic faults armed at every injection site —
// task starts and generation steps throwing, checkpoint writes failing,
// durable frames corrupted, dependencies stalling — every job must still
// complete through the watchdog's retries, and every result must be
// bit-identical to a fault-free run. Same for durability: a service torn
// down mid-run (or whose on-disk checkpoints were tampered with) must
// recover its job table on restart and finish with the same winners.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "service/checkpoint.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"

namespace nc = netsyn::core;
namespace nh = netsyn::harness;
namespace ns = netsyn::service;
namespace nu = netsyn::util;

namespace {

nh::ExperimentConfig tinyConfig(std::uint64_t seed = 7,
                                std::size_t budget = 600) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programLengths = {3};
  cfg.programsPerLength = 2;
  cfg.examplesPerProgram = 3;
  cfg.runsPerProgram = 2;
  cfg.searchBudget = budget;
  cfg.synthesizer.ga.populationSize = 16;
  cfg.synthesizer.ga.eliteCount = 2;
  cfg.synthesizer.maxGenerations = 150;
  cfg.seed = seed;
  return cfg;
}

/// Longer searches: enough generations that mid-run interruption (shutdown,
/// stall, kill) is the common case, while a full run still finishes in
/// test time.
nh::ExperimentConfig mediumConfig(std::uint64_t seed = 41) {
  auto cfg = tinyConfig(seed, 8000);
  cfg.programLengths = {4};
  cfg.synthesizer.maxGenerations = 2000;
  return cfg;
}

/// A job that effectively never finishes on its own (deadline tests).
nh::ExperimentConfig longConfig(std::uint64_t seed = 11) {
  auto cfg = tinyConfig(seed, 100000);
  cfg.programLengths = {5};
  cfg.synthesizer.maxGenerations = 100000;
  return cfg;
}

/// One-shot reference: the sequential runner over the same config.
nh::MethodReport oneShot(const nh::ExperimentConfig& cfg,
                         const std::string& method) {
  ns::ModelStore store;
  const auto m = ns::makeOneShotMethod(method, cfg, store);
  return nh::runMethod(*m, nh::makeFullWorkload(cfg), cfg, /*verbose=*/false);
}

void expectMatchesOneShot(const ns::JobStatus& job,
                          const nh::MethodReport& report) {
  ASSERT_EQ(job.state, ns::JobState::Done) << job.error;
  ASSERT_EQ(job.tasks.size(), job.tasksTotal);
  EXPECT_EQ(job.programs, report.programs.size());
  for (const ns::TaskRecord& t : job.tasks) {
    ASSERT_LT(t.program, report.programs.size());
    ASSERT_LT(t.run, report.programs[t.program].runs.size());
    const nh::RunRecord& r = report.programs[t.program].runs[t.run];
    EXPECT_EQ(t.found, r.found) << "p=" << t.program << " k=" << t.run;
    EXPECT_EQ(t.candidates, r.candidates)
        << "p=" << t.program << " k=" << t.run;
    EXPECT_EQ(t.generations, r.generations)
        << "p=" << t.program << " k=" << t.run;
  }
}

/// Disarms the registry on entry and exit so tests cannot leak faults into
/// each other, and owns a unique scratch state dir.
class ChaosEnv {
 public:
  explicit ChaosEnv(const std::string& tag) {
    nu::FaultRegistry::instance().disarmAll();
    dir_ = "chaos_state_" + tag + "_" +
           std::to_string(static_cast<unsigned>(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  ~ChaosEnv() {
    nu::FaultRegistry::instance().disarmAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const std::string& stateDir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace

// ------------------------------------------------- fault registry ---------

TEST(FaultRegistry, FiresDeterministicallyAtConfiguredHits) {
  auto& reg = nu::FaultRegistry::instance();
  reg.disarmAll();
  // Fire at hit 3, then every 2nd hit after, at most twice: hits 3 and 5.
  reg.armFromText("unit.site=throw@3/2x2");
  std::vector<int> fired;
  for (int hit = 1; hit <= 8; ++hit) {
    try {
      reg.onHit("unit.site");
    } catch (const nu::FaultInjected&) {
      fired.push_back(hit);
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{3, 5}));
  EXPECT_EQ(reg.stats("unit.site").hits, 8u);
  EXPECT_EQ(reg.stats("unit.site").fires, 2u);
  reg.disarmAll();
  EXPECT_FALSE(nu::FaultRegistry::armed());
}

TEST(FaultRegistry, ProbabilisticScheduleReplaysUnderTheSameSeed) {
  auto& reg = nu::FaultRegistry::instance();
  const auto schedule = [&](std::uint64_t seed) {
    reg.disarmAll();
    reg.setSeed(seed);
    reg.armFromText("unit.prob=throw@1/1x0~0.5");
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) {
      bool fired = false;
      try {
        reg.onHit("unit.prob");
      } catch (const nu::FaultInjected&) {
        fired = true;
      }
      pattern.push_back(fired);
    }
    reg.disarmAll();
    return pattern;
  };
  const auto a = schedule(123);
  EXPECT_EQ(a, schedule(123));  // replayable: the whole chaos contract
  std::size_t fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);  // ~0.5 coin actually discriminates
}

TEST(FaultRegistry, DelayFaultSleeps) {
  auto& reg = nu::FaultRegistry::instance();
  reg.disarmAll();
  reg.armFromText("unit.delay=delay:60@1");
  const auto t0 = std::chrono::steady_clock::now();
  reg.onHit("unit.delay");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 50);
  reg.disarmAll();
}

TEST(FaultRegistry, MalformedSpecsAreLoud) {
  auto& reg = nu::FaultRegistry::instance();
  reg.disarmAll();
  EXPECT_THROW(reg.armFromText("nonsense"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=explode"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=delay"), std::invalid_argument);  // no ms
  EXPECT_THROW(reg.armFromText("a=throw@0"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=throw~2"), std::invalid_argument);
  reg.disarmAll();
}

TEST(FaultRegistry, NumericEdgeCasesInSpecsAreLoud) {
  auto& reg = nu::FaultRegistry::instance();
  reg.disarmAll();
  // "x-1" used to slip through std::stoull by wrapping to 2^64-1: a typo'd
  // count silently meant "fire forever". Signs, whitespace, and overflow
  // must all be rejected as whole items.
  EXPECT_THROW(reg.armFromText("a=throwx-1"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=throw@+1"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=throw@ 1"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=throw@99999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=delay:99999999999999999999999"),
               std::invalid_argument);
  // NaN compares false to every bound, so it used to pass the probability
  // range check and poison the fire decision; infinities likewise.
  EXPECT_THROW(reg.armFromText("a=throw~nan"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=throw~inf"), std::invalid_argument);
  EXPECT_THROW(reg.armFromText("a=throw~1e999"), std::invalid_argument);
  EXPECT_FALSE(nu::FaultRegistry::armed()) << "a rejected clause was armed";
  // The boundary itself is legal: x0 means uncapped, ~1 always fires.
  EXPECT_NO_THROW(reg.armFromText("a=throw@1/1x0~1.0"));
  reg.disarmAll();
}

// ------------------------------------------------- watchdog retries -------

TEST(Chaos, ThrownTaskFaultsAreRetriedToBitIdenticalResults) {
  ChaosEnv env("throw");
  auto& reg = nu::FaultRegistry::instance();
  // The first two task starts die, and three mid-search generations die.
  // Every retry must land back on the exact trajectory.
  reg.armFromText(
      "service.task.start=throw@1/1x2;service.task.generation=throw@20/37x3");
  ns::SynthService svc(ns::ServiceConfig{.workers = 2,
                                         .stateDir = {},
                                         .maxTaskRetries = 10,
                                         .retryBackoffMs = 2.0,
                                         .checkpointEveryGenerations = 4});
  const std::uint64_t seeds[] = {7, 8};
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s : seeds)
    ids.push_back(svc.submit(tinyConfig(s), "Edit"));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ns::JobStatus done = svc.wait(ids[i]);
    expectMatchesOneShot(done, oneShot(tinyConfig(seeds[i]), "Edit"));
  }
  EXPECT_GE(svc.stats().tasksRetried, 2u);  // the armed faults really hit
  EXPECT_GE(reg.totalFires(), 2u);
}

TEST(Chaos, StalledTaskIsAbandonedAndRetriedToBitIdenticalResults) {
  ChaosEnv env("stall");
  auto& reg = nu::FaultRegistry::instance();
  // One generation blocks for 1.2s; the watchdog's 0.2s stall budget aborts
  // it at the next boundary and the retry resumes from the last snapshot.
  reg.armFromText("service.task.generation=delay:1200@5x1");
  ns::SynthService svc(ns::ServiceConfig{.workers = 1,
                                         .stateDir = {},
                                         .stallSeconds = 0.2,
                                         .maxTaskRetries = 5,
                                         .retryBackoffMs = 2.0,
                                         .checkpointEveryGenerations = 2});
  const auto cfg = tinyConfig(9);
  const ns::JobStatus done = svc.wait(svc.submit(cfg, "Edit"));
  expectMatchesOneShot(done, oneShot(cfg, "Edit"));
  EXPECT_GE(svc.stats().tasksAbandoned, 1u);
  EXPECT_GE(svc.stats().tasksRetried, 1u);
}

TEST(Chaos, ExhaustedRetriesFailTheJobWithStructuredReason) {
  ChaosEnv env("exhaust");
  auto& reg = nu::FaultRegistry::instance();
  reg.armFromText("service.task.start=throw@1/1x0");  // every start dies
  ns::SynthService svc(ns::ServiceConfig{.workers = 1,
                                         .stateDir = {},
                                         .maxTaskRetries = 2,
                                         .retryBackoffMs = 1.0});
  const ns::JobStatus failed = svc.wait(svc.submit(tinyConfig(7), "Edit"));
  EXPECT_EQ(failed.state, ns::JobState::Failed);
  EXPECT_EQ(failed.errorKind, "task");
  EXPECT_NE(failed.error.find("after 2 retries"), std::string::npos)
      << failed.error;
  EXPECT_GE(failed.retries, 2u);
  EXPECT_EQ(svc.stats().jobsFailed, 1u);

  // Graceful degradation: one poisoned job never takes the service down.
  reg.disarmAll();
  const auto cfg = tinyConfig(8);
  expectMatchesOneShot(svc.wait(svc.submit(cfg, "Edit")), oneShot(cfg, "Edit"));
}

TEST(Chaos, DeadlineFailsTheJobWithStructuredReason) {
  ChaosEnv env("deadline");
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .stateDir = {}});
  ns::SubmitOptions opts;
  opts.deadlineSeconds = 0.15;
  const ns::SubmitResult res = svc.submit(longConfig(), "Edit", opts);
  EXPECT_FALSE(res.attached);
  const ns::JobStatus failed = svc.wait(res.id);
  EXPECT_EQ(failed.state, ns::JobState::Failed);
  EXPECT_EQ(failed.errorKind, "deadline");
  EXPECT_EQ(svc.stats().jobsDeadlineFailed, 1u);
}

// ------------------------------------------------- backpressure -----------

TEST(Chaos, OverloadedQueueRejectsThenRecovers) {
  ChaosEnv env("overload");
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .stateDir = {}, .maxQueuedTasks = 4});
  const std::uint64_t big = svc.submit(longConfig(), "Edit");  // 4 tasks
  const auto cfg = tinyConfig(5);
  EXPECT_THROW(svc.submit(cfg, "Edit"), ns::OverloadedError);
  EXPECT_EQ(svc.stats().submitsRejected, 1u);

  // Clear the load; the same submission must then be accepted and correct.
  EXPECT_TRUE(svc.cancel(big));
  svc.wait(big);
  for (int i = 0; i < 500 && svc.metrics().queueDepth > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(svc.metrics().queueDepth, 0u);
  expectMatchesOneShot(svc.wait(svc.submit(cfg, "Edit")), oneShot(cfg, "Edit"));
}

// ------------------------------------------------- attach ------------------

TEST(Chaos, AttachJoinsTheExistingJobByKey) {
  ChaosEnv env("attach");
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .resultCache = false, .stateDir = {}});
  const auto cfg = tinyConfig(19);
  ns::SubmitOptions attach;
  attach.attach = true;
  const ns::SubmitResult first = svc.submit(cfg, "Edit", attach);
  EXPECT_FALSE(first.attached);
  const ns::SubmitResult again = svc.submit(cfg, "Edit", attach);
  EXPECT_TRUE(again.attached);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(svc.stats().attachHits, 1u);
  EXPECT_EQ(svc.stats().jobsSubmitted, 1u);  // no duplicate run
  expectMatchesOneShot(svc.wait(again.id), oneShot(cfg, "Edit"));
}

// ------------------------------------------------- durable recovery -------

TEST(Chaos, RestartRecoversInterruptedJobsToBitIdenticalResults) {
  ChaosEnv env("recover");
  const auto cfg = mediumConfig(41);
  ns::ServiceConfig sc{.workers = 1,
                       .stateDir = env.stateDir(),
                       .checkpointEveryGenerations = 3};
  std::uint64_t firstId = 0;
  {
    ns::SynthService svc(sc);
    firstId = svc.submit(cfg, "Edit");
    // Give durability a chance to land some snapshots, then tear the
    // service down mid-run. shutdown() leaves no terminal marker, exactly
    // like a crash would.
    for (int i = 0; i < 2000; ++i) {
      const auto m = svc.metrics();
      if (m.stats.durableCheckpointsWritten >= 3 || m.jobsActive == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    svc.shutdown();
  }

  ns::SynthService svc2(sc);
  EXPECT_GE(svc2.stats().jobsRecovered, 1u);
  // Reattach by key (the id may differ in the new incarnation) and let the
  // recovered job finish: same winner as an undisturbed run.
  ns::SubmitOptions attach;
  attach.attach = true;
  const ns::SubmitResult res = svc2.submit(cfg, "Edit", attach);
  EXPECT_TRUE(res.attached);
  const ns::JobStatus done = svc2.wait(res.id);
  EXPECT_TRUE(done.recovered);
  expectMatchesOneShot(done, oneShot(cfg, "Edit"));
  (void)firstId;
}

TEST(Chaos, TamperedDurableCheckpointsAreRejectedAndRecomputed) {
  ChaosEnv env("tamper");
  const auto cfg = mediumConfig(43);
  ns::ServiceConfig sc{.workers = 1,
                       .stateDir = env.stateDir(),
                       .checkpointEveryGenerations = 3};
  {
    ns::SynthService svc(sc);
    svc.submit(cfg, "Edit");
    for (int i = 0; i < 2000; ++i) {
      const auto m = svc.metrics();
      if (m.stats.durableCheckpointsWritten >= 2 || m.jobsActive == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    svc.shutdown();
  }

  // Flip one byte in every snapshot on disk: the checksum layer must reject
  // them all and restart those tasks from their seeds instead.
  std::size_t tampered = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(env.stateDir())) {
    if (entry.path().extension() != ".ckpt") continue;
    std::string bytes;
    std::string err;
    ASSERT_TRUE(ns::readFileBytes(entry.path().string(), bytes, err));
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    ASSERT_TRUE(ns::atomicWriteFile(entry.path().string(), bytes, err));
    ++tampered;
  }

  ns::SynthService svc2(sc);
  if (tampered > 0) {
    EXPECT_GE(svc2.stats().checkpointsRejected, tampered);
    EXPECT_EQ(svc2.stats().durableCheckpointsLoaded, 0u);
  }
  ns::SubmitOptions attach;
  attach.attach = true;
  const ns::SubmitResult res = svc2.submit(cfg, "Edit", attach);
  const ns::JobStatus done = svc2.wait(res.id);
  expectMatchesOneShot(done, oneShot(cfg, "Edit"));
}

TEST(Chaos, CompletedJobsRecoverAsTerminalHistoryAndReseedTheMemo) {
  ChaosEnv env("terminal");
  const auto cfg = tinyConfig(23);
  ns::ServiceConfig sc{.workers = 1,
                       .stateDir = env.stateDir(),
                       .checkpointEveryGenerations = 2};
  {
    ns::SynthService svc(sc);
    const ns::JobStatus done = svc.wait(svc.submit(cfg, "Edit"));
    ASSERT_EQ(done.state, ns::JobState::Done);
  }
  ns::SynthService svc2(sc);
  EXPECT_GE(svc2.stats().jobsRecovered, 1u);
  // The finished job is queryable history in the new incarnation...
  ns::SubmitOptions attach;
  attach.attach = true;
  const ns::SubmitResult res = svc2.submit(cfg, "Edit", attach);
  EXPECT_TRUE(res.attached);
  expectMatchesOneShot(svc2.wait(res.id), oneShot(cfg, "Edit"));
  // ...and it re-seeded the result memo: a plain resubmission is a hit.
  const ns::JobStatus warm = svc2.wait(svc2.submit(cfg, "Edit"));
  EXPECT_TRUE(warm.fromCache);
}

// ------------------------------------------------- everything at once -----

TEST(Chaos, EverySiteArmedPlusRestartStillBitIdentical) {
  ChaosEnv env("all");
  auto& reg = nu::FaultRegistry::instance();
  reg.setSeed(0xdeadbeef);
  // Every site at once: task starts and generations throw, durable writes
  // fail outright half the time, and written frames get a byte flipped a
  // third of the time (which recovery must then reject by checksum).
  reg.armFromText(
      "service.task.start=throw@2/5x3;"
      "service.task.generation=throw@30/61x4;"
      "checkpoint.write=throw@2/2x0~0.5;"
      "checkpoint.corrupt=corrupt@1/1x0~0.34");
  ns::ServiceConfig sc{.workers = 2,
                       .stateDir = env.stateDir(),
                       .maxTaskRetries = 12,
                       .retryBackoffMs = 2.0,
                       .checkpointEveryGenerations = 3};
  const std::uint64_t seeds[] = {41, 42};
  {
    ns::SynthService svc(sc);
    for (std::uint64_t s : seeds) svc.submit(mediumConfig(s), "Edit");
    for (int i = 0; i < 2000; ++i) {
      const auto m = svc.metrics();
      if (m.stats.durableCheckpointsWritten >= 2 || m.jobsActive == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    svc.shutdown();  // crash-equivalent for durable state
  }
  ns::SynthService svc2(sc);
  ns::SubmitOptions attach;
  attach.attach = true;
  for (std::uint64_t s : seeds) {
    const auto cfg = mediumConfig(s);
    const ns::SubmitResult res = svc2.submit(cfg, "Edit", attach);
    const ns::JobStatus done = svc2.wait(res.id);
    expectMatchesOneShot(done, oneShot(cfg, "Edit"));
  }
  EXPECT_GT(reg.totalFires(), 0u);
}

// ------------------------------------------------- protocol surface -------

TEST(ChaosProtocol, OverloadedSubmissionIsStructurallyRejected) {
  ChaosEnv env("proto-overload");
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .stateDir = {}, .maxQueuedTasks = 1});
  bool shutdownRequested = false;
  const std::string resp = ns::handleRequestLine(
      svc,
      "{\"op\": \"submit\", \"method\": \"Edit\", \"config\": " +
          tinyConfig(7).toJson() + "}",
      shutdownRequested);
  const nu::JsonValue v = nu::parseJson(resp);
  const nu::JsonValue* ok = v.find("ok");
  ASSERT_TRUE(ok != nullptr);
  EXPECT_FALSE(ok->boolean);
  std::string rejected;
  nu::readString(v, "rejected", rejected);
  EXPECT_EQ(rejected, "overloaded");

  // The daemon keeps serving: ping works, metrics reports the rejection.
  const std::string pong =
      ns::handleRequestLine(svc, "{\"op\": \"ping\"}", shutdownRequested);
  EXPECT_NE(pong.find("\"ok\": true"), std::string::npos);
  const std::string metrics =
      ns::handleRequestLine(svc, "{\"op\": \"metrics\"}", shutdownRequested);
  EXPECT_NE(metrics.find("\"submits_rejected\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"queue_depth\": "), std::string::npos);
}

TEST(ChaosProtocol, RequestFaultBecomesAnErrorResponseNotADeadSession) {
  ChaosEnv env("proto-fault");
  auto& reg = nu::FaultRegistry::instance();
  reg.armFromText("protocol.request=throw@2x1");
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .stateDir = {}});
  bool shutdownRequested = false;
  EXPECT_NE(ns::handleRequestLine(svc, "{\"op\": \"ping\"}", shutdownRequested)
                .find("\"ok\": true"),
            std::string::npos);
  const std::string faulted =
      ns::handleRequestLine(svc, "{\"op\": \"ping\"}", shutdownRequested);
  EXPECT_NE(faulted.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(faulted.find("protocol.request"), std::string::npos);
  EXPECT_NE(ns::handleRequestLine(svc, "{\"op\": \"ping\"}", shutdownRequested)
                .find("\"ok\": true"),
            std::string::npos);
}
