// Fused vs autograd training throughput, in one process.
//
// Trains two ci-scale CF classifiers on one corpus, from the same initial
// weights and in Trainer::train's minibatch order, each with one gradient
// engine followed by the same clip and Adam step:
//   fused    - NnffModel::trainForward/trainBackward, as Trainer::train
//              runs them (tape-free minibatch pass on the inference kernels);
//   autograd - the oracle: a per-sample autograd graph and one nn::backward
//              per minibatch.
// The two engines alternate minibatch by minibatch, so host drift cancels
// in their ratio, which is the gated metric (`speedup`). The bench also
// checks, for all three heads, that one minibatch's fused gradients equal
// autograd's, and fails (exit 1) when the largest error exceeds 1e-5
// (relative once |g| > 1); the error is recorded as `max_grad_error`.
//
//   $ ./bench_train [--programs=160] [--epochs=3] [--seed=2021]
//                   [--json=BENCH_train.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness/config.hpp"
#include "harness/models.hpp"
#include "fitness/trainer.hpp"
#include "nn/optim.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

using namespace netsyn;

namespace {

/// The loss of one sample as an autograd graph (the oracle of each head).
nn::Var oracleLoss(const fitness::Trainer& trainer,
                   const fitness::NnffModel& model, const fitness::Sample& s) {
  switch (model.config().head) {
    case fitness::HeadKind::Classifier:
      return nn::softmaxCrossEntropy(
          model.forward(s.spec, s.candidate, s.traces),
          trainer.classLabel(model, s));
    case fitness::HeadKind::Multilabel:
      return nn::bceWithLogits(model.forwardIOOnly(s.spec),
                               nn::Matrix::row(s.funcPresence));
    case fitness::HeadKind::Regression:
      return nn::mseLoss(
          model.forward(s.spec, s.candidate, s.traces),
          nn::Matrix(1, 1, static_cast<float>(
                               trainer.config().labelMetric ==
                                       fitness::BalanceMetric::CF
                                   ? s.cf
                                   : s.lcs)));
  }
  return nullptr;
}

/// Accumulates the autograd gradient of the mean minibatch loss.
void autogradGradient(const fitness::Trainer& trainer,
                      const fitness::NnffModel& model,
                      const std::vector<const fitness::Sample*>& batch) {
  nn::Var total;
  for (const fitness::Sample* s : batch) {
    const nn::Var loss = oracleLoss(trainer, model, *s);
    total = total ? nn::add(total, loss) : loss;
  }
  nn::backward(nn::scale(total, 1.0f / static_cast<float>(batch.size())));
}

/// Accumulates the fused gradient of the mean minibatch loss, as
/// Trainer::train does.
void fusedGradient(const fitness::Trainer& trainer, fitness::NnffModel& model,
                   const std::vector<const fitness::Sample*>& batch) {
  std::vector<fitness::TrainRow> rows;
  for (const fitness::Sample* s : batch)
    rows.push_back({&s->spec, &s->candidate, &s->traces});
  const std::vector<float>& logits = model.trainForward(rows);
  const std::size_t out = model.outDim();
  std::vector<float> dlogits(logits.size());
  const float scale = 1.0f / static_cast<float>(batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r)
    trainer.sampleLoss(model, *batch[r], logits.data() + r * out, scale,
                       dlogits.data() + r * out);
  model.trainBackward(dlogits.data());
}

/// One gradient engine training its own model: seconds spent in its
/// minibatch updates (gradient, clip, Adam step).
struct Engine {
  std::shared_ptr<fitness::NnffModel> model;
  nn::Adam opt;
  double seconds = 0.0;

  Engine(std::shared_ptr<fitness::NnffModel> m, float lr)
      : model(std::move(m)), opt(model->params(), lr) {}

  template <typename Gradient>
  void update(const fitness::Trainer& trainer,
              const std::vector<const fitness::Sample*>& batch,
              Gradient gradient) {
    util::Timer timer;
    model->params().zeroGrad();
    gradient(trainer, *model, batch);
    if (trainer.config().gradClip > 0.0f)
      model->params().clipGradNorm(trainer.config().gradClip);
    opt.step();
    seconds += timer.seconds();
  }
};

/// Largest fused-vs-autograd gradient error over one minibatch of `set`,
/// relative once the autograd gradient exceeds 1 in magnitude.
double maxGradError(const fitness::Trainer& trainer, fitness::NnffModel& model,
                    const std::vector<fitness::Sample>& set) {
  std::vector<const fitness::Sample*> batch;
  for (std::size_t i = 0; i < std::min(set.size(), trainer.config().batchSize);
       ++i)
    batch.push_back(&set[i]);
  model.params().zeroGrad();
  autogradGradient(trainer, model, batch);
  std::vector<nn::Matrix> oracle;
  for (const auto& p : model.params().params()) oracle.push_back(p->grad());

  model.params().zeroGrad();
  fusedGradient(trainer, model, batch);

  double worst = 0.0;
  const auto& params = model.params().params();
  for (std::size_t p = 0; p < params.size(); ++p)
    for (std::size_t i = 0; i < oracle[p].size(); ++i) {
      const double ref = oracle[p].at(i);
      const double err = std::fabs(params[p]->grad().at(i) - ref) /
                         std::max(1.0, std::fabs(ref));
      worst = std::max(worst, err);
    }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParse args(argc, argv);
  harness::ExperimentConfig cfg = harness::ExperimentConfig::forScale("ci");
  const auto programs = static_cast<std::size_t>(args.getInt("programs", 160));
  const auto epochs = static_cast<std::size_t>(args.getInt("epochs", 3));
  cfg.seed = static_cast<std::uint64_t>(
      args.getInt("seed", static_cast<long>(cfg.seed)));
  if (programs == 0 || epochs == 0) {
    std::fprintf(stderr, "--programs and --epochs must be > 0\n");
    return 2;
  }

  const auto set = harness::buildCorpus(cfg, programs,
                                        fitness::BalanceMetric::CF,
                                        cfg.seed + 17);
  fitness::TrainConfig tc = cfg.trainConfig;
  tc.epochs = 1;
  tc.labelMetric = fitness::BalanceMetric::CF;
  const fitness::Trainer trainer(tc);

  std::printf("=== bench_train ===\n");
  std::printf("samples=%zu batch=%zu hidden=%zu embed=%zu epochs=%zu\n\n",
              set.size(), tc.batchSize, cfg.modelConfig.hiddenDim,
              cfg.modelConfig.embedDim, epochs);

  double maxError = 0.0;
  for (const fitness::HeadKind head :
       {fitness::HeadKind::Classifier, fitness::HeadKind::Multilabel,
        fitness::HeadKind::Regression}) {
    auto model = harness::buildModel(cfg, head);
    maxError = std::max(maxError, maxGradError(trainer, *model, set));
  }

  // Both engines take every minibatch of every epoch back to back, so each
  // pair of timed updates sees the same host state.
  Engine fused(harness::buildModel(cfg, fitness::HeadKind::Classifier),
               tc.learningRate);
  Engine graph(harness::buildModel(cfg, fitness::HeadKind::Classifier),
               tc.learningRate);
  util::Rng shuffler(tc.shuffleSeed);
  std::vector<std::size_t> order(set.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<const fitness::Sample*> batch;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    shuffler.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += tc.batchSize) {
      batch.clear();
      for (std::size_t i = start;
           i < std::min(order.size(), start + tc.batchSize); ++i)
        batch.push_back(&set[order[i]]);
      fused.update(trainer, batch, fusedGradient);
      graph.update(trainer, batch, autogradGradient);
    }
  }
  const double samples = static_cast<double>(set.size() * epochs);
  const double fusedRate = samples / fused.seconds;
  const double autogradRate = samples / graph.seconds;
  const double speedup = graph.seconds / fused.seconds;
  std::printf("fused     %9.1f samples/sec\n", fusedRate);
  std::printf("autograd  %9.1f samples/sec\n", autogradRate);
  std::printf("speedup   %9.2fx\n", speedup);
  std::printf("max gradient error %.3g (limit 1e-5)\n", maxError);

  const std::string jsonPath = args.getString("json", "BENCH_train.json");
  if (!jsonPath.empty()) {
    if (std::FILE* f = std::fopen(jsonPath.c_str(), "w")) {
      std::fprintf(f,
                   "{\"bench\": \"train\", \"samples\": %zu, \"batch\": %zu, "
                   "\"epochs\": %zu, \"fused_samples_per_sec\": %.1f, "
                   "\"autograd_samples_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"max_grad_error\": %.3g}\n",
                   set.size(), tc.batchSize, epochs, fusedRate, autogradRate,
                   speedup, maxError);
      std::fclose(f);
      std::printf("[json written to %s]\n", jsonPath.c_str());
    }
  }
  if (maxError > 1e-5) {
    std::fprintf(stderr, "FATAL: fused gradients differ from autograd by "
                         "%.3g (> 1e-5)\n", maxError);
    return 1;
  }
  return 0;
}
