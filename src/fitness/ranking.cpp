#include "fitness/ranking.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/optim.hpp"
#include "nn/training.hpp"

namespace netsyn::fitness {

std::vector<RankEpochStats> RankTrainer::train(
    NnffModel& model, const std::vector<PairSample>& trainSet,
    const std::vector<PairSample>& valSet,
    const std::function<void(const RankEpochStats&)>& onEpoch) const {
  if (model.config().head != HeadKind::Regression)
    throw std::invalid_argument("RankTrainer requires a Regression head");
  if (trainSet.empty()) throw std::invalid_argument("empty pair set");

  nn::Adam opt(model.params(), config_.learningRate);
  util::Rng shuffler(config_.shuffleSeed);
  std::vector<std::size_t> order(trainSet.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<TrainRow> rows;
  std::vector<float> dscores;

  std::vector<RankEpochStats> history;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffler.shuffle(order);
    double epochLoss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += config_.batchSize) {
      const std::size_t end =
          std::min(order.size(), start + config_.batchSize);
      const std::size_t n = end - start;
      const float scale = 1.0f / static_cast<float>(n);
      // One training pass scores both sides: rows [0, n) are the a's,
      // rows [n, 2n) the b's.
      rows.clear();
      for (std::size_t i = start; i < end; ++i) {
        const PairSample& p = trainSet[order[i]];
        rows.push_back({&p.spec, &p.a, &p.tracesA});
      }
      for (std::size_t i = start; i < end; ++i) {
        const PairSample& p = trainSet[order[i]];
        rows.push_back({&p.spec, &p.b, &p.tracesB});
      }
      model.params().zeroGrad();
      const std::vector<float>& scores = model.trainForward(rows);
      dscores.resize(2 * n);
      for (std::size_t r = 0; r < n; ++r) {
        const PairSample& p = trainSet[order[start + r]];
        const float margin = scores[r] - scores[n + r];
        const float label = p.metricA > p.metricB ? 1.0f : 0.0f;
        float dMargin = 0.0f;
        epochLoss += nn::bceWithLogitsRow(&margin, &label, 1, scale, &dMargin);
        dscores[r] = dMargin;
        dscores[n + r] = -dMargin;
      }
      model.trainBackward(dscores.data());
      if (config_.gradClip > 0.0f)
        model.params().clipGradNorm(config_.gradClip);
      opt.step();
    }

    RankEpochStats stats;
    stats.epoch = epoch;
    stats.trainLoss = epochLoss / static_cast<double>(trainSet.size());
    if (!valSet.empty()) stats.valPairAccuracy = pairAccuracy(model, valSet);
    history.push_back(stats);
    if (onEpoch) onEpoch(stats);
  }
  return history;
}

double RankTrainer::pairAccuracy(const NnffModel& model,
                                 const std::vector<PairSample>& set) {
  if (set.empty()) return 0.0;
  std::size_t correct = 0;
  for (const PairSample& p : set) {
    const float sa = model.forwardFast(p.spec, p.a, p.tracesA)[0];
    const float sb = model.forwardFast(p.spec, p.b, p.tracesB)[0];
    const bool predictedAFirst = sa > sb;
    const bool actualAFirst = p.metricA > p.metricB;
    correct += (predictedAFirst == actualAFirst) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(set.size());
}

}  // namespace netsyn::fitness
