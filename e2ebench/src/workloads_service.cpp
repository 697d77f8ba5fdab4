// Served workloads: serve (one SynthService behind a Unix-socket
// SocketServer, two closed-loop protocol clients) and fleet (a
// FleetCoordinator over three in-process backends reached by socket). Both
// run small Edit jobs, so no NN model is on their path.
#include <algorithm>
#include <atomic>
#include <functional>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "harness/registry.hpp"
#include "service/fleet.hpp"
#include "service/service.hpp"
#include "util/hashing.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace netsyn;

namespace {

/// Seed of the warm-up job the set-ups of serve and fleet end with: the
/// same job in every run, so set-up is the same work every time.
constexpr std::uint64_t kWarmUpSeed = 424242;

harness::ExperimentConfig editJob(std::uint64_t seed, std::size_t perLength,
                                  std::size_t runs, std::size_t budget) {
  harness::ExperimentConfig cfg = baseConfig(seed);
  cfg.programLengths = {4};
  cfg.programsPerLength = perLength;
  cfg.runsPerProgram = runs;
  cfg.searchBudget = budget;
  return cfg;
}

bool okField(const util::JsonValue& v) {
  const util::JsonValue* ok = v.find("ok");
  return ok && ok->kind == util::JsonValue::Kind::Bool && ok->boolean;
}

/// A terminal job response's tasks, indexed program * runs + run.
std::vector<TaskResult> tasksOf(const util::JsonValue& resp,
                                const harness::ExperimentConfig& cfg) {
  const std::size_t runs = cfg.runsPerProgram;
  const std::size_t count =
      cfg.programLengths.size() * cfg.programsPerLength * runs;
  std::vector<TaskResult> out(count);
  const util::JsonValue* tasks = resp.find("tasks");
  if (!tasks || tasks->kind != util::JsonValue::Kind::Array)
    throw std::runtime_error("terminal response has no tasks array");
  for (const util::JsonValue& t : tasks->items) {
    std::size_t p = 0, k = 0;
    TaskResult r;
    util::readSize(t, "program", p);
    util::readSize(t, "run", k);
    util::readBool(t, "found", r.found);
    util::readSize(t, "candidates", r.candidates);
    util::readSize(t, "generations", r.generations);
    util::readDouble(t, "seconds", r.seconds);
    if (p * runs + k >= count)
      throw std::runtime_error("task index out of range");
    out[p * runs + k] = r;
  }
  return out;
}

/// One served job as a client saw it.
struct JobResult {
  std::size_t config = 0;  ///< index into the distinct job configs
  bool ok = false;
  bool fromCache = false;
  double latency = 0.0;
  std::vector<TaskResult> tasks;
};

/// One closed-loop Edit job over a protocol session: submit, then wait.
/// `ok` means the job was accepted and finished.
JobResult submitAndWait(util::Transport& session,
                        const harness::ExperimentConfig& cfg) {
  JobResult r;
  const auto start = Clock::now();
  const util::JsonValue sub = util::parseJson(session.request(
      "{\"op\": \"submit\", \"method\": \"Edit\", \"config\": " +
      cfg.toJson() + "}"));
  if (okField(sub)) {
    std::uint64_t id = 0;
    util::readU64(sub, "job", id);
    const util::JsonValue fin = util::parseJson(session.request(
        "{\"op\": \"wait\", \"job\": " + std::to_string(id) + "}"));
    std::string state;
    util::readString(fin, "state", state);
    util::readBool(fin, "from_cache", r.fromCache);
    r.ok = okField(fin) && state == "done";
    if (r.ok) r.tasks = tasksOf(fin, cfg);
  }
  r.latency = secondsSince(start);
  return r;
}

/// One-shot in-process runs of `configs` (the oracle every served job is
/// compared against), spread over up to four threads. With counters, the
/// runs go through the timing decorators and their sums land there.
std::vector<SearchRun> oneShotRuns(
    const std::vector<harness::ExperimentConfig>& configs,
    FitnessCounters* fitSum, SearchCounters* searchSum) {
  std::vector<SearchRun> runs(configs.size());
  const std::size_t threads = std::min<std::size_t>(4, configs.size());
  std::vector<FitnessCounters> fits(threads);
  std::vector<SearchCounters> searches(threads);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t]() {
      for (std::size_t i; (i = next.fetch_add(1)) < configs.size();) {
        const harness::ExperimentConfig& cfg = configs[i];
        const baselines::MethodPtr method =
            fitSum ? tracedEdit(cfg, fits[t], searches[t])
                   : harness::makeEdit(cfg);
        runs[i] = runSearch(method, harness::makeFullWorkload(cfg), cfg);
      }
    });
  for (std::thread& th : pool) th.join();
  if (fitSum)
    for (std::size_t t = 0; t < threads; ++t) {
      fitSum->scoreSeconds += fits[t].scoreSeconds;
      fitSum->scoreCalls += fits[t].scoreCalls;
      fitSum->scoreGenes += fits[t].scoreGenes;
      fitSum->encodeSeconds += fits[t].encodeSeconds;
      fitSum->encodeCaptures += fits[t].encodeCaptures;
      searchSum->searchSeconds += searches[t].searchSeconds;
      searchSum->searches += searches[t].searches;
      searchSum->generations += searches[t].generations;
      searchSum->nsInvocations += searches[t].nsInvocations;
      searchSum->foundByNs += searches[t].foundByNs;
    }
  return runs;
}

/// Compares served jobs with the one-shot oracle; counts each job as one
/// attempted operation and each mismatch, rejection or bad solution as a
/// failed one.
void checkJobs(Outcome& out, const std::vector<JobResult>& jobs,
               const std::vector<SearchRun>& oracle, const char* pass) {
  out.attempted += jobs.size();
  for (const SearchRun& run : oracle)
    for (std::size_t i = 0; i < run.badSolutions; ++i)
      out.fail(std::string(pass) + ": a found solution fails the spec");
  for (const JobResult& j : jobs) {
    if (!j.ok) {
      out.fail(std::string(pass) +
               ": a job was rejected, failed, or missed the result memo");
      continue;
    }
    const std::vector<TaskResult>& want = oracle[j.config].tasks;
    bool same = want.size() == j.tasks.size();
    for (std::size_t t = 0; same && t < want.size(); ++t)
      same = sameOutcome(want[t], j.tasks[t]);
    if (!same)
      out.fail(std::string(pass) + ": job of config " +
               std::to_string(j.config) + " differs from its one-shot run");
  }
}

/// End-to-end metrics of a served pass. Tasks count once per executed job
/// (memo answers repeat an earlier job's tasks and are not counted again).
void recordServedEndToEnd(Outcome& out, const std::vector<JobResult>& jobs,
                          double wall) {
  std::vector<double> latency, taskSeconds;
  std::vector<TaskResult> executed;
  std::size_t good = 0;
  for (const JobResult& j : jobs) {
    latency.push_back(j.latency);
    if (j.ok) ++good;
    if (j.fromCache) continue;
    for (const TaskResult& t : j.tasks) {
      executed.push_back(t);
      taskSeconds.push_back(t.seconds);
    }
  }
  const SolveStats s = solveStats(executed);
  out.endToEnd["candidates_per_s"] = static_cast<double>(s.candidates) / wall;
  out.endToEnd["tasks_per_s"] = static_cast<double>(executed.size()) / wall;
  out.endToEnd["goodput_jobs_per_s"] = static_cast<double>(good) / wall;
  out.endToEnd["task_p50_s"] = median(taskSeconds);
  recordTail(out, "task_p90_s", taskSeconds, 90);
  out.endToEnd["job_p50_s"] = median(latency);
  recordTail(out, "job_p95_s", latency, 95);
  out.endToEnd["solved_fraction"] = s.solvedFraction;
  out.endToEnd["mean_candidates_solved"] = s.meanCandidatesSolved;
}

/// Shortest socket paths that stay inside the work dir: sun_path is 108
/// bytes, so the endpoint is relative to the working directory.
util::SocketEndpoint socketAt(const Options& opt, const std::string& name) {
  return util::SocketEndpoint::parse("unix:" + opt.workDir + "/" + name +
                                     ".sock");
}

/// Runs every one of `fns` on its own thread and waits for all of them.
/// SocketServer::stop waits out its accept loop's poll tick (up to 100 ms),
/// so the servers of one stack stop side by side.
void inParallel(const std::vector<std::function<void()>>& fns) {
  std::vector<std::thread> threads;
  for (const auto& fn : fns) threads.emplace_back(fn);
  for (std::thread& t : threads) t.join();
}

// ---- serve ------------------------------------------------------------------

struct ServePlanJob {
  std::size_t config = 0;
  bool resubmit = false;
};

/// The seeded job stream over a fixed pool of distinct Edit jobs. Every run
/// executes the same pool, so runs with different --seed values measure the
/// same work; --seed decides the order of the pool and so which client
/// sends each job. The resubmissions follow synth_client's default session:
/// two fresh jobs (--jobs=2), then an identical resubmission of the first,
/// which the result memo answers. A third of the jobs are resubmissions.
struct ServePlan {
  std::vector<harness::ExperimentConfig> configs;  ///< distinct jobs
  std::vector<std::vector<ServePlanJob>> perClient;
};

/// Fresh jobs of one synth_client session before its resubmission.
constexpr std::size_t kFreshPerSession = 2;

/// Seed of the first job of the fixed serve and fleet pools.
constexpr std::uint64_t kPoolSeed = 900001;

ServePlan makeServePlan(const Options& opt, std::size_t clients,
                        std::size_t pool) {
  ServePlan plan;
  std::vector<std::size_t> order(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    order[i] = i;
    plan.configs.push_back(editJob(kPoolSeed + i, /*perLength=*/2, /*runs=*/1,
                                   opt.tiny ? 500 : 1500));
  }
  util::Rng(opt.seed * 7919).shuffle(order);
  plan.perClient.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    std::vector<ServePlanJob>& jobs = plan.perClient[c];
    std::size_t fresh = 0;
    for (std::size_t i = c; i < pool; i += clients) {
      jobs.push_back({order[i], false});
      if (++fresh % kFreshPerSession == 0)
        jobs.push_back({jobs[jobs.size() - kFreshPerSession].config, true});
    }
  }
  return plan;
}

/// A running service with its socket front end.
struct ServeStack {
  std::unique_ptr<service::SynthService> svc;
  std::unique_ptr<service::SocketServer> server;
};

ServeStack startServe(const Options& opt, const std::string& tag) {
  ServeStack s;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.stateDir = opt.workDir + "/" + tag + "-state";
  s.svc = std::make_unique<service::SynthService>(sc);
  s.server = std::make_unique<service::SocketServer>(*s.svc,
                                                     socketAt(opt, tag));
  s.server->start();
  return s;
}

struct ServePass {
  std::vector<JobResult> jobs;
  double wall = 0.0;
  service::SessionStats stats;
  std::size_t queueDepthMax = 0;
  RttLog rtt;  ///< traced pass only
};

ServePass servePass(const Options& opt, const ServePlan& plan,
                    const std::string& tag, bool traced) {
  ServeStack stack = startServe(opt, tag);
  const std::size_t clients = plan.perClient.size();
  std::vector<std::vector<JobResult>> results(clients);
  std::vector<RttLog> logs(clients);
  std::vector<std::unique_ptr<util::Transport>> sessions;
  for (std::size_t c = 0; c < clients; ++c) {
    std::unique_ptr<util::Transport> t =
        std::make_unique<util::SocketTransport>(
            stack.server->boundEndpoint());
    if (traced) t = std::make_unique<TimedTransport>(std::move(t), logs[c]);
    sessions.push_back(std::move(t));
  }

  // Traced pass: a sampler thread records the deepest task queue.
  std::atomic<bool> done{false};
  std::size_t depthMax = 0;
  std::thread sampler;
  if (traced)
    sampler = std::thread([&]() {
      while (!done.load()) {
        depthMax = std::max(depthMax, stack.svc->metrics().queueDepth);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c]() {
      util::Transport& session = *sessions[c];
      for (const ServePlanJob& job : plan.perClient[c]) {
        JobResult r;
        try {
          if (traced) session.request("{\"op\": \"ping\"}");
          r = submitAndWait(session, plan.configs[job.config]);
          r.ok = r.ok && r.fromCache == job.resubmit;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[e2e] serve client %zu: %s\n", c, e.what());
        }
        r.config = job.config;
        results[c].push_back(std::move(r));
      }
    });
  for (std::thread& th : threads) th.join();
  ServePass pass;
  pass.wall = secondsSince(t0);
  done = true;
  if (sampler.joinable()) sampler.join();
  pass.queueDepthMax = depthMax;
  pass.stats = stack.svc->stats();
  for (auto& session : sessions) session->close();
  stack.server->stop();
  stack.svc->shutdown();
  for (std::size_t c = 0; c < clients; ++c) {
    for (JobResult& r : results[c]) pass.jobs.push_back(std::move(r));
    for (auto& [op, xs] : logs[c])
      pass.rtt[op].insert(pass.rtt[op].end(), xs.begin(), xs.end());
  }
  return pass;
}

// ---- fleet ------------------------------------------------------------------

constexpr std::size_t kFleetHosts = 3;

/// Three backends, one worker each, each behind its own Unix socket.
struct FleetStack {
  std::vector<std::shared_ptr<service::SynthService>> svcs;
  std::vector<std::unique_ptr<service::SocketServer>> servers;
  std::vector<util::SocketEndpoint> endpoints;
  std::vector<std::string> stateDirs;

  void stop() {
    std::vector<std::function<void()>> stops;
    for (auto& server : servers)
      stops.push_back([&server]() { server->stop(); });
    inParallel(stops);
    for (auto& svc : svcs) svc->shutdown();
  }
};

FleetStack startFleet(const Options& opt, const std::string& tag) {
  FleetStack f;
  for (std::size_t h = 0; h < kFleetHosts; ++h) {
    service::ServiceConfig sc;
    sc.workers = 1;
    sc.stateDir = opt.workDir + "/" + tag + "-host-" + std::to_string(h);
    f.stateDirs.push_back(sc.stateDir);
    f.svcs.push_back(std::make_shared<service::SynthService>(sc));
    f.servers.push_back(std::make_unique<service::SocketServer>(
        *f.svcs.back(), socketAt(opt, tag + std::to_string(h))));
    f.servers.back()->start();
    f.endpoints.push_back(f.servers.back()->boundEndpoint());
  }
  return f;
}

service::FleetConfig fleetConfig() {
  service::FleetConfig fc;
  fc.hosts = kFleetHosts;
  fc.pollIntervalMs = 5.0;  // fleet_coord --poll-ms=5
  return fc;
}

struct FleetPass {
  std::vector<JobResult> jobs;
  double wall = 0.0;
  service::FleetMetrics metrics;
  std::vector<service::SessionStats> hostStats;
  RttLog rtt;  ///< traced pass only
  std::vector<double> pollOverhead;
};

FleetPass fleetPass(const std::vector<harness::ExperimentConfig>& configs,
                    FleetStack& stack, bool traced) {
  FleetPass pass;
  std::unique_ptr<service::FleetCoordinator> coord;
  if (traced) {
    const auto endpoints = stack.endpoints;
    const double timeout = fleetConfig().hostTimeoutSeconds;
    RttLog* log = &pass.rtt;
    coord = std::make_unique<service::FleetCoordinator>(
        fleetConfig(),
        [endpoints, timeout, log](std::size_t i)
            -> std::unique_ptr<util::Transport> {
          return std::make_unique<TimedTransport>(
              std::make_unique<util::SocketTransport>(endpoints.at(i),
                                                      timeout),
              *log);
        },
        stack.stateDirs);
  } else {
    coord = std::make_unique<service::FleetCoordinator>(
        fleetConfig(), stack.endpoints, stack.stateDirs);
  }
  std::vector<std::uint64_t> hostIds;
  for (std::size_t h = 0; h < kFleetHosts; ++h)
    hostIds.push_back(service::fleetHostId("host-" + std::to_string(h)));

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    JobResult r;
    r.config = i;
    const auto start = Clock::now();
    try {
      const service::FleetReport report = coord->run(configs[i], "Edit");
      r.latency = secondsSince(start);
      r.ok = true;
      std::vector<double> busy(kFleetHosts, 0.0);
      for (const service::TaskRecord& t : report.tasks) {
        r.tasks.push_back(
            TaskResult{t.found, t.candidates, t.generations, t.seconds});
        const std::uint64_t key =
            service::fleetTaskKey(configs[i].seed, t.program, t.run);
        busy[util::rendezvousOwner(key, hostIds)] += t.seconds;
      }
      pass.pollOverhead.push_back(
          r.latency - *std::max_element(busy.begin(), busy.end()));
    } catch (const std::exception& e) {
      r.latency = secondsSince(start);
      std::fprintf(stderr, "[e2e] fleet job %zu: %s\n", i, e.what());
    }
    pass.jobs.push_back(std::move(r));
  }
  pass.wall = secondsSince(t0);
  pass.metrics = coord->metrics();
  for (const auto& svc : stack.svcs) pass.hostStats.push_back(svc->stats());
  return pass;
}

/// service.* layer metrics summed over the given hosts.
void recordServiceLayers(Outcome& out,
                         const std::vector<service::SessionStats>& hosts,
                         double taskSeconds, double workerSeconds) {
  double executed = 0, hits = 0, lookups = 0, compiles = 0, ckpt = 0,
         errors = 0;
  for (const service::SessionStats& s : hosts) {
    executed += static_cast<double>(s.tasksExecuted);
    hits += static_cast<double>(s.resultCacheHits);
    lookups += static_cast<double>(s.planLookups);
    compiles += static_cast<double>(s.planCompiles);
    ckpt += static_cast<double>(s.durableCheckpointsWritten);
    errors += static_cast<double>(s.durableWriteErrors);
  }
  auto& L = out.perLayer;
  L["service.tasks_executed"] = executed;
  L["service.result_cache_hits"] = hits;
  L["service.plan_hit_ratio"] =
      lookups > 0 ? (lookups - compiles) / lookups : 0.0;
  L["service.checkpoints_written"] = ckpt;
  L["service.durable_write_errors"] = errors;
  L["service.busy_share"] = taskSeconds / workerSeconds;
}

double executedTaskSeconds(const std::vector<JobResult>& jobs) {
  double s = 0.0;
  for (const JobResult& j : jobs)
    if (!j.fromCache)
      for (const TaskResult& t : j.tasks) s += t.seconds;
  return s;
}

}  // namespace

Outcome runServe(const Options& opt) {
  Outcome out;
  const std::size_t clients = 2;
  const std::size_t pool =
      opt.tiny ? 12 : scaled(opt, /*perSecond=*/105, /*atLeast=*/160);
  const ServePlan plan = makeServePlan(opt, clients, pool);

  const ServePass pass = servePass(opt, plan, "serve", /*traced=*/false);
  FitnessCounters fit;
  SearchCounters search;
  const std::vector<SearchRun> oracle =
      oneShotRuns(plan.configs, opt.trace ? &fit : nullptr, &search);
  checkJobs(out, pass.jobs, oracle, "serve");
  recordServedEndToEnd(out, pass.jobs, pass.wall);
  out.endToEnd["peak_rss_mb"] = peakRssMb();

  // Set-up: from constructing the service to its first answer. Service
  // start with an empty state dir, socket bind, two client sessions pinged,
  // and one warm-up job (a fixed config) submitted and waited for. The
  // first answer makes the set-up a few milliseconds of mostly CPU work:
  // timed without it, the thread and socket handshakes alone vary several
  // fold from run to run on a virtual machine. It is timed after the
  // measured pass, so that every run times it after the same disk activity.
  {
    const harness::ExperimentConfig warm =
        editJob(kWarmUpSeed, /*perLength=*/2, /*runs=*/1, 1500);
    const SearchRun want = oneShotRuns({warm}, nullptr, nullptr).front();
    std::size_t rep = 0;
    out.endToEnd["setup_s"] = medianSetup(opt, out, [&]() {
      const std::string tag = "setup" + std::to_string(rep++);
      const auto t0 = Clock::now();
      ServeStack stack = startServe(opt, tag);
      std::vector<std::unique_ptr<util::SocketTransport>> sessions;
      for (std::size_t c = 0; c < clients; ++c) {
        sessions.push_back(std::make_unique<util::SocketTransport>(
            stack.server->boundEndpoint()));
        if (!okField(util::parseJson(
                sessions.back()->request("{\"op\": \"ping\"}"))))
          throw std::runtime_error("serve set-up: ping failed");
      }
      const JobResult first = submitAndWait(*sessions.front(), warm);
      const double seconds = secondsSince(t0);
      checkJobs(out, {first}, {want}, "serve set-up");
      // Torn down before the next set-up starts its clock.
      for (auto& session : sessions) session->close();
      stack.server->stop();
      stack.svc->shutdown();
      std::error_code ec;
      std::filesystem::remove_all(opt.workDir + "/" + tag + "-state", ec);
      return seconds;
    });
  }

  if (!opt.trace) return out;

  const ServePass traced = servePass(opt, plan, "traced", /*traced=*/true);
  checkJobs(out, traced.jobs, oracle, "traced serve");
  if (traced.stats.resultCacheHits != pass.stats.resultCacheHits ||
      traced.stats.tasksExecuted != pass.stats.tasksExecuted)
    out.fail("traced serve pass executed different work");

  auto& L = out.perLayer;
  recordSearchLayers(out, fit, search);
  recordServiceLayers(out, {traced.stats}, executedTaskSeconds(traced.jobs),
                      2.0 * traced.wall);
  const auto rtt = [&](const char* op) {
    const auto it = traced.rtt.find(op);
    return it == traced.rtt.end() ? 0.0 : median(it->second);
  };
  L["service.submit_rtt_s"] = rtt("submit");
  L["service.ping_rtt_s"] = rtt("ping");
  L["service.queue_depth_max"] = static_cast<double>(traced.queueDepthMax);
  L["trace.overhead_ratio"] = traced.wall / pass.wall;
  return out;
}

Outcome runFleet(const Options& opt) {
  Outcome out;
  // A fixed pool of jobs, as in serve, in an order --seed decides.
  std::vector<harness::ExperimentConfig> configs;
  const std::size_t jobs = opt.tiny ? 4 : scaled(opt, 22, 220);
  for (std::size_t i = 0; i < jobs; ++i)
    configs.push_back(editJob(kPoolSeed + 500000 + i, /*perLength=*/3,
                              /*runs=*/1, opt.tiny ? 500 : 1500));
  util::Rng(opt.seed * 7919).shuffle(configs);

  FleetStack stack = startFleet(opt, "f");
  const FleetPass pass = fleetPass(configs, stack, /*traced=*/false);
  stack.stop();
  FitnessCounters fit;
  SearchCounters search;
  const std::vector<SearchRun> oracle =
      oneShotRuns(configs, opt.trace ? &fit : nullptr, &search);
  checkJobs(out, pass.jobs, oracle, "fleet");
  recordServedEndToEnd(out, pass.jobs, pass.wall);
  out.endToEnd["peak_rss_mb"] = peakRssMb();

  // Set-up: from bringing up the three backends to the first fleet job's
  // answer (a fixed warm-up config of 3 tasks), as in serve. It includes the
  // coordinator's first dial and hello to every host.
  {
    const harness::ExperimentConfig warm =
        editJob(kWarmUpSeed, /*perLength=*/3, /*runs=*/1, 1500);
    const SearchRun want = oneShotRuns({warm}, nullptr, nullptr).front();
    std::size_t rep = 0;
    out.endToEnd["setup_s"] = medianSetup(opt, out, [&]() {
      std::string tag = "s";  // appended: GCC 12 falsely warns on "s" + ...
      tag += std::to_string(rep++) + "-";
      const auto t0 = Clock::now();
      FleetStack stack = startFleet(opt, tag);
      auto coord = std::make_unique<service::FleetCoordinator>(
          fleetConfig(), stack.endpoints, stack.stateDirs);
      JobResult first;
      try {
        const service::FleetReport report = coord->run(warm, "Edit");
        first.ok = true;
        for (const service::TaskRecord& t : report.tasks)
          first.tasks.push_back(
              TaskResult{t.found, t.candidates, t.generations, t.seconds});
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[e2e] fleet set-up: %s\n", e.what());
      }
      const double seconds = secondsSince(t0);
      checkJobs(out, {first}, {want}, "fleet set-up");
      // Torn down before the next set-up starts its clock.
      coord->shutdownBackends();
      coord.reset();
      stack.stop();
      std::error_code ec;
      for (const std::string& dir : stack.stateDirs)
        std::filesystem::remove_all(dir, ec);
      return seconds;
    });
  }

  if (!opt.trace) return out;

  FleetStack tracedStack = startFleet(opt, "t");
  const FleetPass traced = fleetPass(configs, tracedStack, true);
  tracedStack.stop();
  checkJobs(out, traced.jobs, oracle, "traced fleet");

  auto& L = out.perLayer;
  recordSearchLayers(out, fit, search);
  recordServiceLayers(out, traced.hostStats, executedTaskSeconds(traced.jobs),
                      static_cast<double>(kFleetHosts) * traced.wall);
  const auto rtt = [&](const char* op) {
    const auto it = traced.rtt.find(op);
    return it == traced.rtt.end() ? 0.0 : median(it->second);
  };
  L["service.submit_rtt_s"] = rtt("claim");
  L["service.ping_rtt_s"] = rtt("status");
  L["fleet.claims_submitted"] =
      static_cast<double>(traced.metrics.claimsSubmitted);
  double maxTasks = 0, sumTasks = 0;
  for (const service::SessionStats& s : traced.hostStats) {
    maxTasks = std::max(maxTasks, static_cast<double>(s.tasksExecuted));
    sumTasks += static_cast<double>(s.tasksExecuted);
  }
  L["fleet.host_task_imbalance"] =
      sumTasks > 0 ? maxTasks / (sumTasks / kFleetHosts) : 0.0;
  L["fleet.poll_overhead_s"] = median(traced.pollOverhead);
  L["trace.overhead_ratio"] = traced.wall / pass.wall;
  return out;
}

}  // namespace e2e
