// The tape-free training pass against its oracle: NnffModel's fused
// minibatch forward/backward (nn/training.hpp kernels) must reproduce the
// loss and every parameter gradient of the autograd graph for all three
// heads, on minibatches mixing candidate lengths (a length-0 candidate
// included) and spec sizes; training must repeat byte for byte.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "fitness/dataset.hpp"
#include "fitness/model.hpp"
#include "fitness/ranking.hpp"
#include "fitness/trainer.hpp"
#include "nn/training.hpp"
#include "util/rng.hpp"

namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

nf::NnffConfig smallConfig(nf::HeadKind head, std::uint64_t seed) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
  cfg.embedDim = 8;
  cfg.hiddenDim = 12;
  cfg.numClasses = 5;
  cfg.maxExamples = 3;
  cfg.head = head;
  cfg.useTrace = head != nf::HeadKind::Multilabel;
  cfg.seed = seed;
  return cfg;
}

/// Re-points `s` at a new candidate, recomputing its traces.
void setCandidate(nf::Sample& s, nd::Program candidate) {
  s.candidate = std::move(candidate);
  s.traces = nf::tracesFor(s.candidate, s.spec);
}

/// A minibatch with candidates of lengths 4, 2, 0 and 1, and one spec cut
/// to a single example, so every masked LSTM runs ragged rows.
std::vector<nf::Sample> raggedBatch(std::uint64_t seed) {
  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 3;
  nf::DatasetBuilder builder(dc);
  Rng rng(seed);
  auto set = builder.build(6, nf::BalanceMetric::CF, rng);
  const auto prefix = [](const nd::Program& p, std::size_t n) {
    nd::Program out;
    for (std::size_t k = 0; k < n; ++k) out.append(p.at(k));
    return out;
  };
  setCandidate(set[1], prefix(set[1].candidate, 2));
  setCandidate(set[2], nd::Program{});
  setCandidate(set[4], prefix(set[4].candidate, 1));
  set[3].spec.examples.resize(1);
  set[3].traces.resize(1);
  return set;
}

/// Loss of one sample built as an autograd graph: the oracle definition of
/// each head.
nn::Var oracleLoss(const nf::Trainer& trainer, const nf::NnffModel& model,
                   const nf::Sample& s) {
  switch (model.config().head) {
    case nf::HeadKind::Classifier:
      return nn::softmaxCrossEntropy(
          model.forward(s.spec, s.candidate, s.traces),
          trainer.classLabel(model, s));
    case nf::HeadKind::Multilabel:
      return nn::bceWithLogits(model.forwardIOOnly(s.spec),
                               nn::Matrix::row(s.funcPresence));
    case nf::HeadKind::Regression:
      return nn::mseLoss(model.forward(s.spec, s.candidate, s.traces),
                         nn::Matrix(1, 1, static_cast<float>(s.cf)));
  }
  return nullptr;
}

std::vector<nn::Matrix> gradients(const nf::NnffModel& model) {
  std::vector<nn::Matrix> out;
  for (const auto& p : model.params().params()) out.push_back(p->grad());
  return out;
}

/// |fused - oracle| <= 1e-5, relative once |oracle| > 1.
void expectClose(double fused, double oracle, const std::string& what) {
  EXPECT_LE(std::fabs(fused - oracle), 1e-5 * std::max(1.0, std::fabs(oracle)))
      << what << ": fused " << fused << " vs autograd " << oracle;
}

void checkParity(nf::HeadKind head) {
  for (std::uint64_t seed : {3u, 17u}) {
    nf::NnffModel model(smallConfig(head, seed));
    const nf::Trainer trainer;
    const auto batch = raggedBatch(seed);
    const float scale = 1.0f / static_cast<float>(batch.size());

    // Oracle: the mean of per-sample graph losses, one backward.
    model.params().zeroGrad();
    nn::Var total;
    double oracleSum = 0.0;
    for (const auto& s : batch) {
      const nn::Var loss = oracleLoss(trainer, model, s);
      oracleSum += loss->scalar();
      total = total ? nn::add(total, loss) : loss;
    }
    nn::backward(nn::scale(total, scale));
    const auto oracle = gradients(model);

    // Fused: one pass over the whole minibatch.
    model.params().zeroGrad();
    std::vector<nf::TrainRow> rows;
    for (const auto& s : batch)
      rows.push_back({&s.spec, &s.candidate, &s.traces});
    const std::vector<float> logits = model.trainForward(rows);
    const std::size_t out = model.outDim();
    ASSERT_EQ(logits.size(), batch.size() * out);
    std::vector<float> dlogits(logits.size());
    double fusedSum = 0.0;
    for (std::size_t r = 0; r < batch.size(); ++r)
      fusedSum += trainer.sampleLoss(model, batch[r], logits.data() + r * out,
                                     scale, dlogits.data() + r * out);
    model.trainBackward(dlogits.data());
    const auto fused = gradients(model);

    expectClose(fusedSum, oracleSum, "loss");
    ASSERT_EQ(fused.size(), oracle.size());
    double norm = 0.0;
    for (std::size_t p = 0; p < fused.size(); ++p) {
      ASSERT_TRUE(fused[p].sameShape(oracle[p]));
      for (std::size_t i = 0; i < fused[p].size(); ++i) {
        expectClose(fused[p].at(i), oracle[p].at(i),
                    "param " + std::to_string(p) + " entry " +
                        std::to_string(i));
        norm += static_cast<double>(oracle[p].at(i)) * oracle[p].at(i);
      }
    }
    EXPECT_GT(norm, 0.0);  // the comparison is not vacuous
  }
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(FusedTraining, ClassifierGradientsMatchAutograd) {
  checkParity(nf::HeadKind::Classifier);
}

TEST(FusedTraining, MultilabelGradientsMatchAutograd) {
  checkParity(nf::HeadKind::Multilabel);
}

TEST(FusedTraining, RegressionGradientsMatchAutograd) {
  checkParity(nf::HeadKind::Regression);
}

TEST(FusedTraining, LogitsMatchTheFastPath) {
  nf::NnffModel model(smallConfig(nf::HeadKind::Classifier, 5));
  const auto batch = raggedBatch(5);
  std::vector<nf::TrainRow> rows;
  for (const auto& s : batch)
    rows.push_back({&s.spec, &s.candidate, &s.traces});
  const std::vector<float> logits = model.trainForward(rows);
  const std::size_t out = model.outDim();
  for (std::size_t r = 0; r < batch.size(); ++r) {
    const auto fast =
        model.forwardFast(batch[r].spec, batch[r].candidate, batch[r].traces);
    // Every training step runs the inference kernels, so the logits agree
    // bit for bit.
    for (std::size_t j = 0; j < out; ++j)
      EXPECT_EQ(logits[r * out + j], fast[j]) << "row " << r;
  }
}

TEST(FusedTraining, MaskedLstmMatchesAutogradPerStep) {
  // Kernel level: a ragged batch through LstmTape, with a gradient on every
  // step's hidden state (the stacked-combiner case), against Lstm::step.
  Rng rng(9);
  nn::ParamStore store;
  nn::Lstm lstm(3, 4, store, rng);
  const std::vector<std::size_t> lengths = {3, 0, 1, 2, 3};
  const std::size_t steps = 3, batch = lengths.size(), in = 3, hid = 4;
  std::vector<float> xs(steps * batch * in), dhs(steps * batch * hid);
  for (float& v : xs) v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
  for (float& v : dhs) v = static_cast<float>(rng.uniformReal(-1.0, 1.0));

  // Oracle: sum over rows and live steps of <dh_t, h_t>.
  store.zeroGrad();
  nn::Var total;
  for (std::size_t b = 0; b < batch; ++b) {
    nn::Lstm::State st = lstm.initialState();
    for (std::size_t t = 0; t < lengths[b]; ++t) {
      const float* x = xs.data() + (t * batch + b) * in;
      st = lstm.step(nn::constant(nn::Matrix::row({x, x + in})), st);
      const float* d = dhs.data() + (t * batch + b) * hid;
      const nn::Var term =
          nn::scale(nn::meanAll(nn::mulElem(
                        st.h, nn::constant(nn::Matrix::row({d, d + hid})))),
                    static_cast<float>(hid));
      total = total ? nn::add(total, term) : term;
    }
  }
  nn::backward(total);
  const std::vector<nn::Matrix> oracle = {store.params()[0]->grad(),
                                          store.params()[1]->grad(),
                                          store.params()[2]->grad()};

  store.zeroGrad();
  nn::LstmTape tape;
  tape.reset(lstm, batch, steps);
  std::copy(xs.begin(), xs.end(), tape.x.begin());
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t b = 0; b < batch; ++b)
      tape.active(t)[b] = t < lengths[b] ? 1 : 0;
  nn::lstmForwardTrain(lstm, tape);
  // A frozen row's hidden state carries no gradient of its own.
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t b = 0; b < batch; ++b)
      if (!tape.active(t)[b])
        std::fill_n(dhs.begin() + (t * batch + b) * hid, hid, 0.0f);
  nn::lstmBackwardTrain(lstm, tape, nullptr, dhs.data());
  for (std::size_t p = 0; p < 3; ++p)
    for (std::size_t i = 0; i < oracle[p].size(); ++i)
      expectClose(store.params()[p]->grad().at(i), oracle[p].at(i),
                  "param " + std::to_string(p));
}

TEST(FusedTraining, RepeatTrainingSavesIdenticalBytes) {
  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 3;
  nf::DatasetBuilder builder(dc);
  Rng rng(23);
  const auto set = builder.build(30, nf::BalanceMetric::LCS, rng);
  nf::TrainConfig tc;
  tc.epochs = 2;
  tc.batchSize = 7;  // a ragged last minibatch
  tc.labelMetric = nf::BalanceMetric::LCS;
  std::string bytes[2];
  for (int run = 0; run < 2; ++run) {
    nf::NnffModel model(smallConfig(nf::HeadKind::Classifier, 31));
    nf::Trainer(tc).train(model, set, set);
    const std::string path = ::testing::TempDir() + "netsyn_fused_repeat_" +
                             std::to_string(run) + ".bin";
    model.save(path);
    bytes[run] = fileBytes(path);
    std::remove(path.c_str());
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(FusedTraining, RankTrainerRepeatsAndMovesWeights) {
  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 3;
  Rng rng(41);
  const auto pairs = nf::buildPairs(dc, 12, nf::BalanceMetric::CF, rng);
  nf::RankTrainConfig rc;
  rc.epochs = 1;
  rc.batchSize = 5;
  std::vector<nn::Matrix> weights[2];
  for (int run = 0; run < 2; ++run) {
    nf::NnffModel model(smallConfig(nf::HeadKind::Regression, 8));
    nf::RankTrainer(rc).train(model, pairs, {});
    for (const auto& p : model.params().params())
      weights[run].push_back(p->value());
  }
  EXPECT_EQ(weights[0], weights[1]);
  nf::NnffModel untrained(smallConfig(nf::HeadKind::Regression, 8));
  EXPECT_NE(untrained.params().params()[0]->value(), weights[0][0]);
}
