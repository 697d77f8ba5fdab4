// Timing decorators for the traced pass. Each one wraps a public seam of the
// library — FitnessFunction::scoreBatch, LaneTraceSink::capture,
// Method::synthesize, and a protocol Transport's round trips — forwards every
// call unchanged, and accumulates busy time and counts into plain counters
// the workload reads when the pass ends. The untraced pass never constructs
// them, so end-to-end numbers carry no tracing cost.
//
// A decorated search must follow exactly the trajectory of the undecorated
// one; the workloads check that (found, candidates, generations, memo
// counts) on every traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/method.hpp"
#include "fitness/fitness.hpp"
#include "util/transport.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What the fitness decorators saw. One instance per search thread.
struct FitnessCounters {
  double scoreSeconds = 0.0;
  std::uint64_t scoreCalls = 0;
  std::uint64_t scoreGenes = 0;
  double encodeSeconds = 0.0;
  std::uint64_t encodeCaptures = 0;
};

/// Times LaneTraceSink::capture: the lane-trace encoding the synthesizer
/// runs for every gene while its SoA blocks are live.
class TracedSink final : public netsyn::fitness::LaneTraceSink {
 public:
  TracedSink(netsyn::fitness::LaneTraceSink* inner, FitnessCounters& counters)
      : inner_(inner), counters_(counters) {}

  void beginCapture(const netsyn::dsl::Spec& spec, std::size_t count) override {
    inner_->beginCapture(spec, count);
  }

  void capture(std::size_t slot, const netsyn::dsl::Program& candidate,
               const netsyn::dsl::LaneTraceView& view) override {
    const auto t0 = Clock::now();
    inner_->capture(slot, candidate, view);
    counters_.encodeSeconds += secondsSince(t0);
    ++counters_.encodeCaptures;
  }

  const netsyn::fitness::EncodedTrace& at(std::size_t slot) const override {
    return inner_->at(slot);
  }

 private:
  netsyn::fitness::LaneTraceSink* inner_;
  FitnessCounters& counters_;
};

/// Times FitnessFunction::score / scoreBatch and wraps the inner lane sink.
class TracedFitness final : public netsyn::fitness::FitnessFunction {
 public:
  TracedFitness(netsyn::fitness::FitnessPtr inner, FitnessCounters& counters)
      : inner_(std::move(inner)),
        counters_(counters),
        sink_(inner_->laneSink() ? std::make_unique<TracedSink>(
                                       inner_->laneSink(), counters)
                                 : nullptr) {}

  double score(const netsyn::dsl::Program& gene,
               const netsyn::fitness::EvalContext& ctx) override {
    const auto t0 = Clock::now();
    const double s = inner_->score(gene, ctx);
    counters_.scoreSeconds += secondsSince(t0);
    ++counters_.scoreCalls;
    ++counters_.scoreGenes;
    return s;
  }

  std::vector<double> scoreBatch(
      const std::vector<const netsyn::dsl::Program*>& genes,
      const std::vector<const netsyn::fitness::EvalContext*>& contexts)
      override {
    const auto t0 = Clock::now();
    std::vector<double> out = inner_->scoreBatch(genes, contexts);
    counters_.scoreSeconds += secondsSince(t0);
    ++counters_.scoreCalls;
    counters_.scoreGenes += genes.size();
    return out;
  }

  double maxScore(std::size_t targetLength) const override {
    return inner_->maxScore(targetLength);
  }
  std::string name() const override { return inner_->name(); }
  netsyn::fitness::LaneTraceSink* laneSink() override { return sink_.get(); }

 private:
  netsyn::fitness::FitnessPtr inner_;
  FitnessCounters& counters_;
  std::unique_ptr<TracedSink> sink_;
};

/// What the method decorator saw.
struct SearchCounters {
  double searchSeconds = 0.0;
  std::uint64_t searches = 0;
  std::uint64_t generations = 0;
  std::uint64_t nsInvocations = 0;
  std::uint64_t foundByNs = 0;
};

/// Times Method::synthesize and sums the search's own counters.
class TracedMethod final : public netsyn::baselines::Method {
 public:
  TracedMethod(netsyn::baselines::MethodPtr inner, SearchCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  std::string name() const override { return inner_->name(); }

  netsyn::core::SynthesisResult synthesize(const netsyn::dsl::Spec& spec,
                                           std::size_t targetLength,
                                           std::size_t budgetLimit,
                                           netsyn::util::Rng& rng) override {
    const auto t0 = Clock::now();
    netsyn::core::SynthesisResult r =
        inner_->synthesize(spec, targetLength, budgetLimit, rng);
    counters_.searchSeconds += secondsSince(t0);
    ++counters_.searches;
    counters_.generations += r.generations;
    counters_.nsInvocations += r.nsInvocations;
    counters_.foundByNs += r.foundByNs ? 1 : 0;
    return r;
  }

 private:
  netsyn::baselines::MethodPtr inner_;
  SearchCounters& counters_;
};

/// Round-trip times of one protocol session, keyed by request op.
using RttLog = std::map<std::string, std::vector<double>>;

/// Times each request/response round trip of a protocol session (send of a
/// request line to receipt of its response line), keyed by the request's
/// "op". One session is driven by one thread at a time.
class TimedTransport final : public netsyn::util::Transport {
 public:
  TimedTransport(std::unique_ptr<netsyn::util::Transport> inner, RttLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void sendLine(const std::string& line) override {
    pendingOp_ = opOf(line);
    sent_ = Clock::now();
    inner_->sendLine(line);
  }

  std::string recvLine() override {
    std::string line = inner_->recvLine();
    log_[pendingOp_].push_back(secondsSince(sent_));
    return line;
  }

  bool alive() const override { return inner_->alive(); }
  void close() override { inner_->close(); }
  void kill() override { inner_->kill(); }

 private:
  /// The value of the request's "op" member; every request line the
  /// protocol clients write starts with it.
  static std::string opOf(const std::string& line) {
    const std::string key = "\"op\": \"";
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return "?";
    const std::size_t from = at + key.size();
    return line.substr(from, line.find('"', from) - from);
  }

  std::unique_ptr<netsyn::util::Transport> inner_;
  RttLog& log_;
  std::string pendingOp_;
  Clock::time_point sent_;
};

}  // namespace e2e
