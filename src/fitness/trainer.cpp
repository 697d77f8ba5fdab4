#include "fitness/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fitness/extras.hpp"
#include "nn/optim.hpp"
#include "nn/training.hpp"

namespace netsyn::fitness {
namespace {

/// One fast-path forward: the logits validation reads loss and accuracy
/// from.
std::vector<float> logitsOf(const NnffModel& model, const Sample& s) {
  return model.config().head == HeadKind::Multilabel
             ? model.forwardIOOnlyFast(s.spec)
             : model.forwardFast(s.spec, s.candidate, s.traces);
}

/// The FP head's targets: function presence, or adjacent-pair presence for
/// the bigram model (§5.3.1).
std::vector<float> multilabelTargets(const NnffModel& model, const Sample& s) {
  const std::size_t out = model.outDim();
  if (out == s.funcPresence.size()) return s.funcPresence;
  std::vector<float> pairs = bigramTargets(s.target);
  if (pairs.size() != out)
    throw std::invalid_argument("unsupported multilabel width");
  return pairs;
}

std::size_t argmaxClass(const std::vector<float>& logits) {
  const auto probs = nn::softmaxValue(nn::Matrix::row(logits));
  std::size_t argmax = 0;
  for (std::size_t j = 1; j < probs.cols(); ++j)
    if (probs.at(j) > probs.at(argmax)) argmax = j;
  return argmax;
}

/// FP accuracy of one sample: the fraction of functions whose
/// (p >= 0.5) prediction matches their presence.
double multilabelHits(const NnffModel& model, const Sample& s,
                      const std::vector<float>& logits) {
  const std::vector<float> targets = multilabelTargets(model, s);
  std::size_t hits = 0;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    const bool predicted = logits[j] >= 0.0f;  // p >= 0.5
    const bool present = targets[j] >= 0.5f;
    hits += (predicted == present) ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(logits.size());
}

}  // namespace

float Trainer::regressionLabel(const Sample& sample) const {
  return static_cast<float>(
      config_.labelMetric == BalanceMetric::CF ? sample.cf : sample.lcs);
}

std::size_t Trainer::classLabel(const NnffModel& model,
                                const Sample& sample) const {
  const std::size_t raw =
      config_.labelMetric == BalanceMetric::CF ? sample.cf : sample.lcs;
  if (config_.labelTransform == LabelTransform::ZeroVsNonzero)
    return raw == 0 ? 0 : 1;
  return std::min(raw, model.config().numClasses - 1);
}

float Trainer::sampleLoss(const NnffModel& model, const Sample& sample,
                          const float* logits, float scale,
                          float* dlogits) const {
  const std::size_t out = model.outDim();
  switch (model.config().head) {
    case HeadKind::Classifier:
      return nn::softmaxCrossEntropyRow(logits, out, classLabel(model, sample),
                                        scale, dlogits);
    case HeadKind::Multilabel: {
      const std::vector<float> targets = multilabelTargets(model, sample);
      return nn::bceWithLogitsRow(logits, targets.data(), out, scale, dlogits);
    }
    case HeadKind::Regression: {
      const float label = regressionLabel(sample);
      return nn::mseRow(logits, &label, 1, scale, dlogits);
    }
  }
  throw std::logic_error("unknown head");
}

std::vector<EpochStats> Trainer::train(
    NnffModel& model, const std::vector<Sample>& trainSet,
    const std::vector<Sample>& valSet,
    const std::function<void(const EpochStats&)>& onEpoch) const {
  if (trainSet.empty()) throw std::invalid_argument("empty training set");

  nn::Adam opt(model.params(), config_.learningRate);
  util::Rng shuffler(config_.shuffleSeed);
  std::vector<std::size_t> order(trainSet.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t out = model.outDim();
  std::vector<TrainRow> rows;
  std::vector<float> dlogits;

  std::vector<EpochStats> history;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffler.shuffle(order);
    double epochLoss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += config_.batchSize) {
      const std::size_t end =
          std::min(order.size(), start + config_.batchSize);
      // The minibatch loss is the mean of its samples' losses.
      const float scale = 1.0f / static_cast<float>(end - start);
      rows.clear();
      for (std::size_t i = start; i < end; ++i) {
        const Sample& s = trainSet[order[i]];
        rows.push_back({&s.spec, &s.candidate, &s.traces});
      }
      model.params().zeroGrad();
      const std::vector<float>& logits = model.trainForward(rows);
      dlogits.resize(logits.size());
      for (std::size_t i = start; i < end; ++i) {
        const std::size_t r = i - start;
        epochLoss += sampleLoss(model, trainSet[order[i]],
                                logits.data() + r * out, scale,
                                dlogits.data() + r * out);
      }
      model.trainBackward(dlogits.data());
      if (config_.gradClip > 0.0f)
        model.params().clipGradNorm(config_.gradClip);
      opt.step();
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.trainLoss = epochLoss / static_cast<double>(trainSet.size());
    if (!valSet.empty()) {
      const auto [loss, acc] = evaluate(model, valSet);
      stats.valLoss = loss;
      stats.valAccuracy = acc;
    }
    history.push_back(stats);
    if (onEpoch) onEpoch(stats);
  }
  return history;
}

std::pair<double, double> Trainer::evaluate(
    const NnffModel& model, const std::vector<Sample>& set) const {
  if (set.empty()) return {0.0, 0.0};
  double totalLoss = 0.0;
  double correct = 0.0;
  for (const Sample& s : set) {
    const std::vector<float> logits = logitsOf(model, s);
    totalLoss += sampleLoss(model, s, logits.data());
    switch (model.config().head) {
      case HeadKind::Classifier:
        correct += (argmaxClass(logits) == classLabel(model, s)) ? 1.0 : 0.0;
        break;
      case HeadKind::Multilabel:
        correct += multilabelHits(model, s, logits);
        break;
      case HeadKind::Regression:
        // "Accurate" when the rounded prediction hits the label.
        correct += (std::lround(logits[0]) ==
                    std::lround(regressionLabel(s)))
                       ? 1.0
                       : 0.0;
        break;
    }
  }
  return {totalLoss / static_cast<double>(set.size()),
          correct / static_cast<double>(set.size())};
}

util::ConfusionMatrix Trainer::confusion(const NnffModel& model,
                                         const std::vector<Sample>& set) const {
  if (model.config().head != HeadKind::Classifier)
    throw std::logic_error("confusion() requires a Classifier head");
  util::ConfusionMatrix cm(model.config().numClasses);
  for (const Sample& s : set)
    cm.add(classLabel(model, s), argmaxClass(logitsOf(model, s)));
  return cm;
}

double Trainer::multilabelAccuracy(const NnffModel& model,
                                   const std::vector<Sample>& set) {
  if (model.config().head != HeadKind::Multilabel)
    throw std::logic_error("multilabelAccuracy requires a Multilabel head");
  if (set.empty()) return 0.0;
  double correct = 0.0;
  for (const Sample& s : set)
    correct += multilabelHits(model, s, logitsOf(model, s));
  return correct / static_cast<double>(set.size());
}

double Trainer::regressionMae(const NnffModel& model,
                              const std::vector<Sample>& set) const {
  if (model.config().head != HeadKind::Regression)
    throw std::logic_error("regressionMae requires a Regression head");
  if (set.empty()) return 0.0;
  double total = 0.0;
  for (const Sample& s : set)
    total += std::fabs(static_cast<double>(logitsOf(model, s)[0]) -
                       static_cast<double>(regressionLabel(s)));
  return total / static_cast<double>(set.size());
}

}  // namespace netsyn::fitness
