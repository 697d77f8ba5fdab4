// NnffModel's tape-free training pass: the minibatch forward that records
// activations, and its hand-written backward (see model.hpp).
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsl/interpreter.hpp"
#include "fitness/edit.hpp"
#include "fitness/model.hpp"
#include "nn/activation.hpp"
#include "nn/training.hpp"

namespace netsyn::fitness {

/// Rows are indexed three ways: minibatch rows r (N), example rows er (R:
/// every encoded example of every minibatch row, row-major), and trace rows
/// tr (one per program step of every example row).
struct TrainTape {
  std::size_t rows = 0;
  std::vector<std::size_t> exStart;     ///< N + 1 offsets into example rows
  std::vector<std::size_t> traceStart;  ///< R + 1 offsets into trace rows
  std::vector<std::size_t> funcRows;    ///< funcEmb row of each trace row
  std::vector<std::vector<std::size_t>> inTokens, outTokens, traceTokens;
  std::vector<float> ioFeats;  ///< R x kIoFeatureDim
  std::vector<float> hIoF;     ///< R x H, tanh(ioFeatProj)
  std::vector<float> gfeat;    ///< R x 4 example-level match features
  std::vector<float> hFeat;    ///< R x H, tanh(featProj)
  nn::LstmTape in, out, trace, step, comb1, comb2, example;
  std::vector<float> hidden;  ///< N x H, relu(fc1)
  std::vector<float> logits;  ///< N x outDim
  // Backward scratch.
  std::vector<float> dHidden, dFused, dH, dOut, dProg, dAct, dTrace;
};

void TrainTapeDeleter::operator()(TrainTape* tape) const { delete tape; }

namespace {

void copyRows(const float* src, std::size_t n, float* dst) {
  std::copy(src, src + n, dst);
}

/// dx := dy * (1 - y^2): the gradient through y = tanh(x).
void tanhBackward(const float* y, const float* dy, std::size_t n, float* dx) {
  for (std::size_t k = 0; k < n; ++k) dx[k] = dy[k] * (1.0f - y[k] * y[k]);
}

}  // namespace

const std::vector<float>& NnffModel::trainForward(
    const std::vector<TrainRow>& rows) {
  if (!train_) train_.reset(new TrainTape);
  TrainTape& tp = *train_;
  clearWeightCaches();

  const std::size_t n = rows.size();
  const std::size_t h = config_.hiddenDim;
  const std::size_t e = config_.embedDim;
  tp.rows = n;
  tp.exStart.assign(n + 1, 0);
  std::size_t maxExamples = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const TrainRow& row = rows[r];
    const std::size_t m = std::min(row.spec->size(), config_.maxExamples);
    if (config_.useTrace) {
      if (row.candidate == nullptr || row.traces == nullptr)
        throw std::invalid_argument(
            "NnffModel: trace branch enabled but no candidate/trace given");
      if (row.traces->size() < m)
        throw std::invalid_argument(
            "NnffModel: one trace per example required");
      for (std::size_t i = 0; i < m; ++i)
        if ((*row.traces)[i].size() != row.candidate->length())
          throw std::invalid_argument(
              "NnffModel: trace length != program length");
    }
    tp.exStart[r + 1] = tp.exStart[r] + m;
    maxExamples = std::max(maxExamples, m);
  }
  const std::size_t R = tp.exStart[n];

  // Token encoders and the IO property signature, every example at once.
  tp.inTokens.resize(R);
  tp.outTokens.resize(R);
  tp.ioFeats.resize(R * kIoFeatureDim);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t er = tp.exStart[r]; er < tp.exStart[r + 1]; ++er) {
      const dsl::IOExample& ex = rows[r].spec->examples[er - tp.exStart[r]];
      tp.inTokens[er] = encoder_.encodeInputs(ex.inputs);
      tp.outTokens[er] = encoder_.encodeValue(ex.output);
      const auto feats = ioSummaryFeatures(ex.inputs, ex.output);
      std::copy(feats.begin(), feats.end(),
                tp.ioFeats.begin() + er * kIoFeatureDim);
    }
  }
  nn::lstmTokensForwardTrain(*inputLstm_, *valueEmb_, tp.inTokens, tp.in);
  nn::lstmTokensForwardTrain(*outputLstm_, *valueEmb_, tp.outTokens, tp.out);
  tp.hIoF.resize(R * h);
  nn::linearForwardBatchFast(*ioFeatProj_, tp.ioFeats.data(), R,
                             tp.hIoF.data());
  nn::tanh(tp.hIoF.data(), tp.hIoF.data(), tp.hIoF.size());

  // Combiner pieces: [hIn, hOut, hIoF] plus [hProg, hOut * hProg, hFeat]
  // with the program branch, written straight into combine1's inputs.
  const std::size_t pieces = config_.useTrace ? 6 : 3;
  tp.comb1.reset(*combine1_, R, pieces);
  copyRows(tp.in.finalHidden(), R * h, tp.comb1.input(0));
  copyRows(tp.out.finalHidden(), R * h, tp.comb1.input(1));
  copyRows(tp.hIoF.data(), R * h, tp.comb1.input(2));

  if (config_.useTrace) {
    // Every trace value of every example is one traceLstm row.
    tp.traceStart.assign(R + 1, 0);
    std::size_t maxLen = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t len = rows[r].candidate->length();
      maxLen = std::max(maxLen, len);
      for (std::size_t er = tp.exStart[r]; er < tp.exStart[r + 1]; ++er)
        tp.traceStart[er + 1] = tp.traceStart[er] + len;
    }
    tp.traceTokens.resize(tp.traceStart[R]);
    tp.funcRows.resize(tp.traceStart[R]);
    for (std::size_t r = 0; r < n; ++r) {
      const dsl::Program& cand = *rows[r].candidate;
      for (std::size_t er = tp.exStart[r]; er < tp.exStart[r + 1]; ++er) {
        const auto& trace = (*rows[r].traces)[er - tp.exStart[r]];
        for (std::size_t k = 0; k < cand.length(); ++k) {
          const std::size_t tr = tp.traceStart[er] + k;
          tp.traceTokens[tr] = encoder_.encodeValue(trace[k]);
          tp.funcRows[tr] = funcRow(cand.at(k));
        }
      }
    }
    nn::lstmTokensForwardTrain(*traceLstm_, *valueEmb_, tp.traceTokens,
                               tp.trace);

    // Program steps x_k = [funcEmb | trace encoding | match features].
    const std::size_t stepWidth = e + h + 2;
    tp.step.reset(*stepLstm_, R, maxLen);
    tp.gfeat.resize(R * 4);
    const float* tEnc = tp.trace.finalHidden();
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t len = rows[r].candidate->length();
      for (std::size_t er = tp.exStart[r]; er < tp.exStart[r + 1]; ++er) {
        const std::size_t i = er - tp.exStart[r];
        const dsl::Value& output = rows[r].spec->examples[i].output;
        const auto& trace = (*rows[r].traces)[i];
        for (std::size_t k = len; k < maxLen; ++k) tp.step.active(k)[er] = 0;
        std::size_t exactSteps = 0;
        for (std::size_t k = 0; k < len; ++k) {
          const std::size_t tr = tp.traceStart[er] + k;
          float* x = tp.step.input(k) + er * stepWidth;
          copyRows(funcEmb_->table().data() + tp.funcRows[tr] * e, e, x);
          copyRows(tEnc + tr * h, h, x + e);
          const auto dist = valueEditDistance(trace[k], output);
          x[e + h] = 1.0f / (1.0f + static_cast<float>(dist));
          x[e + h + 1] = (dist == 0) ? 1.0f : 0.0f;
          if (trace[k] == output) ++exactSteps;
        }
        const dsl::Value& finalValue =
            len == 0 ? dsl::kEmptyListValue : trace.back();
        const auto finalDist = valueEditDistance(finalValue, output);
        float* g = tp.gfeat.data() + er * 4;
        g[0] = 1.0f / (1.0f + static_cast<float>(finalDist));
        g[1] = (finalDist == 0) ? 1.0f : 0.0f;
        g[2] = (finalValue.type() == output.type()) ? 1.0f : 0.0f;
        g[3] = len == 0 ? 0.0f
                        : static_cast<float>(exactSteps) /
                              static_cast<float>(len);
      }
    }
    nn::lstmForwardTrain(*stepLstm_, tp.step);

    const float* hOut = tp.out.finalHidden();
    const float* hProg = tp.step.finalHidden();
    copyRows(hProg, R * h, tp.comb1.input(3));
    float* hMul = tp.comb1.input(4);
    for (std::size_t k = 0; k < R * h; ++k) hMul[k] = hOut[k] * hProg[k];
    tp.hFeat.resize(R * h);
    nn::linearForwardBatchFast(*featProj_, tp.gfeat.data(), R, tp.hFeat.data());
    nn::tanh(tp.hFeat.data(), tp.hFeat.data(), tp.hFeat.size());
    copyRows(tp.hFeat.data(), R * h, tp.comb1.input(5));
  }

  // Two stacked combiners: layer 2 reads every hidden state of layer 1.
  nn::lstmForwardTrain(*combine1_, tp.comb1);
  tp.comb2.reset(*combine2_, R, pieces);
  copyRows(tp.comb1.h.data(), pieces * R * h, tp.comb2.x.data());
  nn::lstmForwardTrain(*combine2_, tp.comb2);

  // The example LSTM fuses each minibatch row's H_i.
  const float* His = tp.comb2.finalHidden();
  tp.example.reset(*exampleLstm_, n, maxExamples);
  for (std::size_t t = 0; t < maxExamples; ++t) {
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t er = tp.exStart[r] + t;
      tp.example.active(t)[r] = er < tp.exStart[r + 1] ? 1 : 0;
      if (tp.example.active(t)[r])
        copyRows(His + er * h, h, tp.example.input(t) + r * h);
    }
  }
  nn::lstmForwardTrain(*exampleLstm_, tp.example);

  tp.hidden.resize(n * fc1_->outDim());
  nn::linearForwardBatchFast(*fc1_, tp.example.finalHidden(), n,
                             tp.hidden.data());
  nn::reluFast(tp.hidden.data(), tp.hidden.size());
  tp.logits.resize(n * fc2_->outDim());
  nn::linearForwardBatchFast(*fc2_, tp.hidden.data(), n, tp.logits.data());
  return tp.logits;
}

void NnffModel::trainBackward(const float* dlogits) {
  if (!train_)
    throw std::logic_error("NnffModel: trainBackward before trainForward");
  TrainTape& tp = *train_;
  const std::size_t n = tp.rows;
  const std::size_t R = tp.exStart[n];
  const std::size_t h = config_.hiddenDim;
  const std::size_t e = config_.embedDim;

  // Head: fc2 <- relu <- fc1.
  tp.dHidden.resize(tp.hidden.size());
  nn::linearBackwardBatch(*fc2_, tp.hidden.data(), n, dlogits,
                          tp.dHidden.data());
  for (std::size_t k = 0; k < tp.hidden.size(); ++k)
    if (tp.hidden[k] <= 0.0f) tp.dHidden[k] = 0.0f;
  tp.dFused.resize(n * h);
  nn::linearBackwardBatch(*fc1_, tp.example.finalHidden(), n,
                          tp.dHidden.data(), tp.dFused.data());

  // Example LSTM, then its input gradients back onto the example rows.
  nn::lstmBackwardTrain(*exampleLstm_, tp.example, tp.dFused.data(), nullptr);
  tp.dH.resize(R * h);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t er = tp.exStart[r]; er < tp.exStart[r + 1]; ++er)
      copyRows(tp.example.inputGrad(er - tp.exStart[r]) + r * h, h,
               tp.dH.data() + er * h);

  // Combiners: layer 2's input gradient is the per-step gradient of layer 1.
  nn::lstmBackwardTrain(*combine2_, tp.comb2, tp.dH.data(), nullptr);
  nn::lstmBackwardTrain(*combine1_, tp.comb1, nullptr, tp.comb2.dx.data());
  tp.dOut.assign(tp.comb1.inputGrad(1), tp.comb1.inputGrad(1) + R * h);
  tp.dAct.resize(R * h);

  if (config_.useTrace) {
    const float* hOut = tp.out.finalHidden();
    const float* hProg = tp.step.finalHidden();
    const float* dMul = tp.comb1.inputGrad(4);
    tp.dProg.assign(tp.comb1.inputGrad(3), tp.comb1.inputGrad(3) + R * h);
    for (std::size_t k = 0; k < R * h; ++k) {
      tp.dProg[k] += dMul[k] * hOut[k];
      tp.dOut[k] += dMul[k] * hProg[k];
    }
    tanhBackward(tp.hFeat.data(), tp.comb1.inputGrad(5), R * h,
                 tp.dAct.data());
    nn::linearBackwardBatch(*featProj_, tp.gfeat.data(), R, tp.dAct.data(),
                            nullptr);

    // Program steps: funcEmb rows and trace encodings get their slices.
    nn::lstmBackwardTrain(*stepLstm_, tp.step, tp.dProg.data(), nullptr);
    const std::size_t stepWidth = e + h + 2;
    tp.dTrace.resize(tp.traceStart[R] * h);
    for (std::size_t er = 0; er < R; ++er) {
      for (std::size_t tr = tp.traceStart[er]; tr < tp.traceStart[er + 1];
           ++tr) {
        const float* gx =
            tp.step.inputGrad(tr - tp.traceStart[er]) + er * stepWidth;
        nn::embeddingScatterAdd(*funcEmb_, tp.funcRows[tr], gx);
        copyRows(gx + e, h, tp.dTrace.data() + tr * h);
      }
    }
    nn::lstmTokensBackwardTrain(*traceLstm_, *valueEmb_, tp.traceTokens,
                                tp.trace, tp.dTrace.data());
  }

  tanhBackward(tp.hIoF.data(), tp.comb1.inputGrad(2), R * h, tp.dAct.data());
  nn::linearBackwardBatch(*ioFeatProj_, tp.ioFeats.data(), R, tp.dAct.data(),
                          nullptr);
  nn::lstmTokensBackwardTrain(*inputLstm_, *valueEmb_, tp.inTokens, tp.in,
                              tp.comb1.inputGrad(0));
  nn::lstmTokensBackwardTrain(*outputLstm_, *valueEmb_, tp.outTokens, tp.out,
                              tp.dOut.data());
}

}  // namespace netsyn::fitness
