// netsyn_e2e — the NetSyn end-to-end benchmark binary (run it through
// e2ebench/run.py, which builds it first).
//
//   netsyn_e2e --prepare --model-dir=DIR
//       trains and caches the models the search_nn workload loads.
//   netsyn_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
//              --model-dir=DIR --work-dir=DIR [--tiny]
//       runs one workload (cold_start, search_nn, serve, fleet) and prints
//       one JSON result as the last line of standard output: the end-to-end
//       metrics with --trace=0, the per-layer metrics with --trace=1.
//
// Exit code 0 means the run completed; "correct" in the result says whether
// every output check passed.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/argparse.hpp"

namespace {

using namespace e2e;

std::string jsonResult(const Outcome& out, bool trace) {
  const auto& catalogue = trace ? kPerLayer : kEndToEnd;
  const auto& values = trace ? out.perLayer : out.endToEnd;
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const auto it = values.find(catalogue[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    json += std::string(i ? ", " : "") + "\"" + catalogue[i].name +
            "\": {\"value\": " + num + ", \"unit\": \"" + catalogue[i].unit +
            "\"}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dropped session is an error, not a kill
  try {
    const netsyn::util::ArgParse args(argc, argv);
    Options opt;
    opt.modelDir = args.getString("model-dir", "");
    if (opt.modelDir.empty()) throw std::invalid_argument("--model-dir needed");
    if (args.getBool("prepare", false)) {
      prepareModels(opt.modelDir);
      return 0;
    }
    opt.workload = args.getString("workload", "");
    const long seed = args.getInt("seed", 1);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.seconds = args.getDouble("seconds", 10.0);
    opt.trace = args.getInt("trace", 0) != 0;
    opt.tiny = args.getBool("tiny", false);
    opt.workDir = args.getString("work-dir", "");
    if (opt.workDir.empty()) throw std::invalid_argument("--work-dir needed");
    std::filesystem::remove_all(opt.workDir);
    std::filesystem::create_directories(opt.workDir);

    // The host's speed, probed before and after the workload, so that a
    // slow run shows as a slow probe rather than as a regression.
    const double probeBefore = hostProbeSeconds();
    Outcome out;
    if (opt.workload == "cold_start") {
      out = runColdStart(opt);
    } else if (opt.workload == "search_nn") {
      out = runSearchNn(opt);
    } else if (opt.workload == "serve") {
      out = runServe(opt);
    } else if (opt.workload == "fleet") {
      out = runFleet(opt);
    } else {
      throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
    }
    if (!out.endToEnd.count("peak_rss_mb"))
      out.endToEnd["peak_rss_mb"] = peakRssMb();
    const double probeAfter = hostProbeSeconds();
    out.perLayer["host.probe_s"] = (probeBefore + probeAfter) / 2.0;
    char probe[96];
    std::snprintf(probe, sizeof probe,
                  "host.probe_s: %.6f before, %.6f after the workload",
                  probeBefore, probeAfter);
    out.note(probe);
    std::filesystem::remove_all(opt.workDir);

    for (const std::string& line : out.notes)
      std::printf("[e2e] %s\n", line.c_str());
    std::printf("%s\n", jsonResult(out, opt.trace).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[e2e] error: %s\n", e.what());
    return 1;
  }
}
