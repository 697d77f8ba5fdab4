// Reuse in batched NN scoring: the per-spec prelude cache and the two
// prefix-state memos (program steps through stepLstm, trace tokens through
// traceLstm) must only ever skip work, never change a score. Every case
// compares a memo-warm model against a cold one bitwise.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "dsl/lanes.hpp"
#include "fitness/model.hpp"
#include "fitness/prefix_memo.hpp"
#include "util/rng.hpp"

namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
using netsyn::util::Rng;

namespace {

using Logits = std::vector<std::vector<float>>;

nf::NnffConfig smallConfig(bool useTrace = true, std::uint64_t seed = 7) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 64, .maxValueTokens = 8};
  cfg.embedDim = 16;
  cfg.hiddenDim = 24;
  cfg.maxExamples = 3;
  cfg.head = useTrace ? nf::HeadKind::Classifier : nf::HeadKind::Multilabel;
  cfg.useTrace = useTrace;
  cfg.seed = seed;
  return cfg;
}

/// A spec and genes with their per-example runs. Genes come in prefix
/// families (a program and its truncations, plus an exact duplicate), so
/// one batch both shares prefixes within itself and repeats whole rows.
struct Population {
  nd::Spec spec;
  std::vector<nd::Program> genes;
  std::vector<std::vector<nd::ExecResult>> runs;

  void add(nd::Program program) {
    std::vector<nd::ExecResult> r;
    for (const auto& ex : spec.examples) r.push_back(nd::run(program, ex.inputs));
    genes.push_back(std::move(program));
    runs.push_back(std::move(r));
  }

  std::vector<const nd::Program*> genePtrs() const {
    std::vector<const nd::Program*> out;
    for (const auto& g : genes) out.push_back(&g);
    return out;
  }

  std::vector<const std::vector<nd::ExecResult>*> runPtrs() const {
    std::vector<const std::vector<nd::ExecResult>*> out;
    for (const auto& r : runs) out.push_back(&r);
    return out;
  }
};

Population makePopulation(std::size_t families, std::uint64_t seed,
                          std::size_t examples = 4) {
  Rng rng(seed);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(4, examples, false, rng);
  EXPECT_TRUE(tc.has_value());
  Population pop;
  pop.spec = tc->spec;
  const nd::InputSignature sig = pop.spec.signature();
  for (std::size_t f = 0; f < families; ++f) {
    auto prog = gen.randomProgram(5, sig, rng);
    EXPECT_TRUE(prog.has_value());
    const auto& fns = prog->functions();
    for (std::size_t len : {2, 4})
      pop.add(nd::Program(std::vector<nd::FuncId>(fns.begin(),
                                                  fns.begin() + len)));
    pop.add(*prog);
    pop.add(*prog);
  }
  return pop;
}

Logits scoreRuns(const nf::NnffModel& model, const Population& pop) {
  return model.predictBatchRuns(pop.spec, pop.genePtrs(), pop.runPtrs());
}

Logits coldScores(const nf::NnffConfig& cfg, const Population& pop) {
  const nf::NnffModel cold(cfg);
  return scoreRuns(cold, pop);
}

void expectBitwise(const Logits& a, const Logits& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t g = 0; g < a.size(); ++g) {
    ASSERT_EQ(a[g].size(), b[g].size()) << what;
    for (std::size_t j = 0; j < a[g].size(); ++j)
      ASSERT_EQ(a[g][j], b[g][j]) << what << ": gene " << g << " logit " << j;
  }
}

/// Lane-encodes every gene of `pop` through the lane executor, as the
/// synthesizer's capture does.
std::vector<nf::EncodedTrace> encodeLanes(const nf::NnffModel& model,
                                          const Population& pop) {
  std::vector<const std::vector<nd::Value>*> inputSets;
  for (const auto& ex : pop.spec.examples) inputSets.push_back(&ex.inputs);
  nd::Executor exec;
  exec.setLaneExecution(true);
  exec.pinExampleInputs(inputSets.data(), inputSets.size());
  model.beginLaneCapture(pop.spec);
  std::vector<nf::EncodedTrace> encoded(pop.genes.size());
  nd::LaneTraceView view;
  for (std::size_t b = 0; b < pop.genes.size(); ++b) {
    const nd::ExecPlan& plan = exec.planFor(pop.genes[b], pop.spec.signature());
    EXPECT_TRUE(exec.executeMultiView(plan, inputSets.data(), inputSets.size(),
                                      view));
    model.encodeLaneTrace(pop.spec, pop.genes[b], view, encoded[b]);
  }
  return encoded;
}

Logits scoreEncoded(const nf::NnffModel& model, const Population& pop,
                    const std::vector<nf::EncodedTrace>& encoded) {
  std::vector<const nf::EncodedTrace*> ptrs;
  for (const auto& e : encoded) ptrs.push_back(&e);
  return model.predictBatchEncoded(pop.spec, pop.genePtrs(), ptrs);
}

}  // namespace

TEST(PrefixStateMemo, StoresFindsAndClearsWhenFull) {
  nf::PrefixStateMemo memo(3);
  EXPECT_EQ(memo.find(1), nullptr);
  const float h[3] = {1, 2, 3}, c[3] = {4, 5, 6};
  memo.insert(42, h, c);
  const float* got = memo.find(42);
  ASSERT_NE(got, nullptr);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(got[j], h[j]);
    EXPECT_EQ(got[3 + j], c[j]);
  }
  // Re-inserting a key overwrites its slot instead of taking a new one.
  const float h2[3] = {7, 8, 9};
  memo.insert(42, h2, c);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.find(42)[0], 7.0f);

  memo.setCapacity(2);
  EXPECT_EQ(memo.size(), 0u);
  memo.insert(1, h, c);
  memo.insert(2, h, c);
  EXPECT_NE(memo.find(1), nullptr);
  memo.insert(3, h, c);  // full: clears, then stores key 3 alone
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_EQ(memo.find(2), nullptr);
  EXPECT_NE(memo.find(3), nullptr);

  // Many keys at full capacity: every stored one stays findable.
  nf::PrefixStateMemo big(1);
  for (std::uint64_t k = 0; k < nf::PrefixStateMemo::kCapacity; ++k) {
    const float v = static_cast<float>(k);
    big.insert(k * 0x10000, &v, &v);
  }
  for (std::uint64_t k = 0; k < nf::PrefixStateMemo::kCapacity; ++k)
    ASSERT_EQ(big.find(k * 0x10000)[0], static_cast<float>(k));
}

TEST(ScoreMemo, PopulationScoredTwiceMatchesColdAndScalar) {
  const auto cfg = smallConfig();
  const auto pop = makePopulation(6, 101);
  const Logits cold = coldScores(cfg, pop);

  // The cold batch equals the per-gene scalar path, duplicates included:
  // rows that share a prefix inside one batch share its computation.
  const nf::NnffModel scalar(cfg);
  for (std::size_t b = 0; b < pop.genes.size(); ++b) {
    std::vector<std::vector<nd::Value>> traces;
    for (const auto& r : pop.runs[b]) traces.push_back(r.trace);
    const auto single = scalar.forwardFast(pop.spec, pop.genes[b], traces);
    for (std::size_t j = 0; j < single.size(); ++j)
      ASSERT_EQ(cold[b][j], single[j]) << "gene " << b << " logit " << j;
  }

  nf::NnffModel model(cfg);
  expectBitwise(scoreRuns(model, pop), cold, "first pass");
  const auto first = model.memoStats();
  EXPECT_EQ(first.preludeMisses, 1u);
  EXPECT_GT(first.stepPrefixMisses, 0u);
  EXPECT_GT(first.stepPrefixHits, 0u) << "no prefix shared within the batch";
  EXPECT_GT(first.tokenPrefixMisses, 0u);

  expectBitwise(scoreRuns(model, pop), cold, "second pass");
  const auto second = model.memoStats();
  EXPECT_EQ(second.preludeHits, first.preludeHits + 1);
  EXPECT_EQ(second.stepPrefixMisses, first.stepPrefixMisses)
      << "ran a program step whose prefix state was stored";
  EXPECT_GT(second.stepPrefixHits, first.stepPrefixHits);
  EXPECT_EQ(second.tokenPrefixMisses, first.tokenPrefixMisses);
  // Reuse never changes which trace values the other memos see.
  EXPECT_EQ(second.traceMisses, first.traceMisses);
  EXPECT_EQ(second.editMisses, first.editMisses);
}

TEST(ScoreMemo, DuplicateRowsRunEachStepOnce) {
  const auto cfg = smallConfig();
  auto pop = makePopulation(1, 102);
  pop.genes.resize(1);
  pop.runs.resize(1);
  const nd::Program gene = pop.genes[0];
  for (int copy = 0; copy < 3; ++copy) pop.add(gene);

  nf::NnffModel model(cfg);
  expectBitwise(scoreRuns(model, pop), coldScores(cfg, pop), "duplicates");
  const std::size_t m = std::min(pop.spec.size(), cfg.maxExamples);
  const auto stats = model.memoStats();
  EXPECT_EQ(stats.stepPrefixMisses, m * gene.length());
  EXPECT_EQ(stats.stepPrefixHits, 3 * m * gene.length());
}

TEST(ScoreMemo, InterleavedSpecsMatchCold) {
  const auto cfg = smallConfig();
  const auto a = makePopulation(4, 103);
  const auto b = makePopulation(4, 104);
  const Logits coldA = coldScores(cfg, a);
  const Logits coldB = coldScores(cfg, b);
  nf::NnffModel model(cfg);
  for (int round = 0; round < 3; ++round) {
    expectBitwise(scoreRuns(model, a), coldA, "spec A");
    expectBitwise(scoreRuns(model, b), coldB, "spec B");
  }
  EXPECT_EQ(model.memoStats().preludeMisses, 2u);
  EXPECT_EQ(model.memoStats().preludeHits, 4u);
}

TEST(ScoreMemo, TinyCapacitiesClearOnInsertAndMatchCold) {
  const auto cfg = smallConfig();
  const auto a = makePopulation(4, 105);
  const auto b = makePopulation(3, 106);
  const Logits coldA = coldScores(cfg, a);
  const Logits coldB = coldScores(cfg, b);
  for (std::size_t cap : {1, 2}) {
    nf::NnffModel model(cfg);
    model.setMemoCapacity(cap);
    for (int round = 0; round < 2; ++round) {
      expectBitwise(scoreRuns(model, a), coldA, "spec A, tiny capacity");
      expectBitwise(scoreRuns(model, b), coldB, "spec B, tiny capacity");
    }
    // Capacity 1 keeps one prelude: every switch of spec recomputes it.
    if (cap == 1) {
      EXPECT_EQ(model.memoStats().preludeMisses, 4u);
    }
  }
}

TEST(ScoreMemo, EncodedAndRunsPathsShareTheMemosBitwise) {
  const auto cfg = smallConfig();
  const auto pop = makePopulation(5, 107);
  const Logits cold = coldScores(cfg, pop);

  // Lane path first on a fresh model, then the scattered path on the same
  // model (served from what the lane path stored), and the reverse.
  {
    nf::NnffModel model(cfg);
    const auto encoded = encodeLanes(model, pop);
    expectBitwise(scoreEncoded(model, pop, encoded), cold, "encoded, cold");
    expectBitwise(scoreRuns(model, pop), cold, "runs after encoded");
    EXPECT_GT(model.memoStats().stepPrefixHits, 0u);
  }
  {
    nf::NnffModel model(cfg);
    expectBitwise(scoreRuns(model, pop), cold, "runs, cold");
    const auto before = model.memoStats();
    const auto encoded = encodeLanes(model, pop);
    expectBitwise(scoreEncoded(model, pop, encoded), cold, "encoded after runs");
    EXPECT_EQ(model.memoStats().stepPrefixMisses, before.stepPrefixMisses);

    // An encoded trace without step fingerprints (built by hand) still
    // scores exactly; it just neither reads nor feeds the step memo.
    auto stripped = encoded;
    for (auto& e : stripped) e.stepFps.clear();
    const auto mid = model.memoStats();
    expectBitwise(scoreEncoded(model, pop, stripped), cold, "no fingerprints");
    EXPECT_EQ(model.memoStats().stepPrefixHits, mid.stepPrefixHits);
  }
}

TEST(ScoreMemo, LengthZeroGenesMatchCold) {
  const auto cfg = smallConfig();
  auto pop = makePopulation(3, 108);
  pop.add(nd::Program{});
  pop.add(nd::Program{});
  const Logits cold = coldScores(cfg, pop);
  nf::NnffModel model(cfg);
  expectBitwise(scoreRuns(model, pop), cold, "first pass");
  expectBitwise(scoreRuns(model, pop), cold, "second pass");

  // An all-empty batch runs no step at all.
  Population empty;
  empty.spec = pop.spec;
  empty.add(nd::Program{});
  expectBitwise(scoreRuns(model, empty), coldScores(cfg, empty), "all empty");
}

TEST(ScoreMemo, OneExampleSpecsMatchCold) {
  const auto cfg = smallConfig();
  const auto pop = makePopulation(4, 109, /*examples=*/1);
  ASSERT_EQ(pop.spec.size(), 1u);
  const Logits cold = coldScores(cfg, pop);
  nf::NnffModel model(cfg);
  expectBitwise(scoreRuns(model, pop), cold, "first pass");
  const auto encoded = encodeLanes(model, pop);
  expectBitwise(scoreEncoded(model, pop, encoded), cold, "encoded");
}

TEST(ScoreMemo, PreludeIsKeyedByContentNotAddress) {
  const auto cfg = smallConfig();
  const auto a = makePopulation(3, 110);
  const auto b = makePopulation(3, 111);
  ASSERT_NE(a.spec.fingerprint(), b.spec.fingerprint());
  const Logits coldB = coldScores(cfg, b);

  // Same storage, different spec: destroy A and construct B in its place.
  std::optional<nd::Spec> slot;
  nf::NnffModel model(cfg);
  slot.emplace(a.spec);
  const nd::Spec* addressA = &*slot;
  (void)model.predictBatchRuns(*slot, a.genePtrs(), a.runPtrs());
  slot.reset();
  slot.emplace(b.spec);
  ASSERT_EQ(&*slot, addressA);
  expectBitwise(model.predictBatchRuns(*slot, b.genePtrs(), b.runPtrs()),
                coldB, "spec reallocated at the same address");

  // The IO-only model has no program branch: its batched path is all
  // prelude.
  const auto ioCfg = smallConfig(/*useTrace=*/false);
  nf::NnffModel io(ioCfg);
  const nf::NnffModel ioCold(ioCfg);
  slot.reset();
  slot.emplace(a.spec);
  (void)io.predictBatch(*slot, a.genePtrs(), {});
  slot.reset();
  slot.emplace(b.spec);
  const auto warm = io.predictBatch(*slot, b.genePtrs(), {});
  const auto single = ioCold.forwardIOOnlyFast(b.spec);
  for (const auto& row : warm)
    for (std::size_t j = 0; j < single.size(); ++j)
      ASSERT_EQ(row[j], single[j]) << "IO-only logit " << j;
}

TEST(ScoreMemo, LoadDropsCachesComputedUnderOldWeights) {
  const auto cfgA = smallConfig(true, 7);
  const auto cfgB = smallConfig(true, 8);
  const auto pop = makePopulation(4, 112);
  const std::string path = ::testing::TempDir() + "score_memo_weights_b.bin";
  nf::NnffModel(cfgB).save(path);

  // Warm every cache under weights A, then load B into the same model.
  nf::NnffModel model(cfgA);
  const auto encodedA = encodeLanes(model, pop);
  (void)scoreEncoded(model, pop, encodedA);
  (void)scoreRuns(model, pop);
  model.load(path);

  nf::NnffModel fresh(cfgA);
  fresh.load(path);
  const Logits expected = scoreRuns(fresh, pop);
  expectBitwise(expected, coldScores(cfgB, pop), "fresh model holding B");
  expectBitwise(scoreRuns(model, pop), expected, "runs after load");
  const auto encodedB = encodeLanes(model, pop);
  expectBitwise(scoreEncoded(model, pop, encodedB), expected,
                "encoded after load");
  std::remove(path.c_str());
}
