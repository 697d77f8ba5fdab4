// Tape-free training kernels for the layers in layers.hpp.
//
// Training runs the same raw-buffer kernels as inference (nn/inference.hpp,
// addVecMatBatch) over whole minibatches: a forward pass records each
// layer's activations into a reusable arena, and hand-written backward
// passes (backpropagation through time for the LSTM) accumulate parameter
// gradients straight into the ParamStore's gradient buffers, where Adam,
// clipGradNorm and saveParams find them as before. No graph node is built.
//
// The autograd engine (nn/autograd.hpp) computes the same gradients one
// sample at a time; tests/test_fused_training.cpp pins the two together.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/inference.hpp"

namespace netsyn::nn {

/// Activations of one LSTM run over B rows and T timesteps, kept for BPTT.
/// Reused across minibatches: reset() only ever grows the buffers.
///
/// Rows are masked per step like lstmStepBatchFast: a row with
/// active(t)[b] == 0 keeps its state through step t, which is how sequences
/// of different lengths share one run (a finished row's final state is its
/// own last step's, and a length-0 row stays at the zero state).
struct LstmTape {
  std::size_t batch = 0;
  std::size_t steps = 0;
  std::size_t in = 0;
  std::size_t hid = 0;
  std::vector<float> x;              ///< T x B x in step inputs (caller-filled)
  std::vector<std::uint8_t> mask;    ///< T x B row masks
  std::vector<float> gates;          ///< T x B x 4H activated [i | f | g | o]
  std::vector<float> c;              ///< T x B x H cell state after each step
  std::vector<float> tanhC;          ///< T x B x H tanh of the cell state
  std::vector<float> h;              ///< T x B x H hidden state after each step
  std::vector<float> zeros;          ///< B x H initial (zero) state
  std::vector<float> dx;             ///< T x B x in input gradient (backward)
  // Backward scratch.
  std::vector<float> dz, dh, dc;
  Matrix wxT, whT;  ///< transposed weights, so dx and dh are addVecMatBatch

  /// Sizes the tape for `steps` x `batch` rows of `lstm`; every row starts
  /// active.
  void reset(const Lstm& lstm, std::size_t batch, std::size_t steps);

  float* input(std::size_t t) { return x.data() + t * batch * in; }
  std::uint8_t* active(std::size_t t) { return mask.data() + t * batch; }
  const float* hidden(std::size_t t) const {
    return h.data() + t * batch * hid;
  }
  /// B x H final hidden state: the last step's, or zeros for an empty run.
  const float* finalHidden() const {
    return steps == 0 ? zeros.data() : hidden(steps - 1);
  }
  /// B x in gradient of step t's input (valid after lstmBackwardTrain).
  const float* inputGrad(std::size_t t) const {
    return dx.data() + t * batch * in;
  }
};

/// Runs `lstm` over the inputs and masks already written to `tape`,
/// recording gates, cell and hidden states. Per row the arithmetic is
/// lstmStepBatchFast's, so the states equal inference's bit for bit; the
/// activated gates are stored because recomputing them in the backward
/// pass costs about a fifth of the training throughput.
void lstmForwardTrain(const Lstm& lstm, LstmTape& tape);

/// Backpropagation through time over a recorded run. `dhFinal` (B x H,
/// nullable) is the loss gradient on the final hidden state; `dhSteps`
/// (T x B x H, nullable) adds a gradient on every step's hidden output (the
/// input gradient of a stacked layer). Accumulates dWx, dWh and db into the
/// layer's gradient buffers and writes the input gradient to tape.dx (zero
/// on masked-out rows).
void lstmBackwardTrain(Lstm& lstm, LstmTape& tape, const float* dhFinal,
                       const float* dhSteps);

/// Training counterpart of lstmEncodeTokensBatchFast: embeds `tokens` (one
/// sequence per row) into `tape` and runs it; tape.finalHidden() then holds
/// each row's encoding.
void lstmTokensForwardTrain(
    const Lstm& lstm, const Embedding& embedding,
    const std::vector<std::vector<std::size_t>>& tokens, LstmTape& tape);

/// BPTT of lstmTokensForwardTrain from `dhFinal` (B x H), scatter-adding
/// the input gradient into the embedding table's gradient rows.
void lstmTokensBackwardTrain(
    Lstm& lstm, Embedding& embedding,
    const std::vector<std::vector<std::size_t>>& tokens, LstmTape& tape,
    const float* dhFinal);

/// Embedding backward: the gradient row of `token` += grad (dim entries).
void embeddingScatterAdd(Embedding& embedding, std::size_t token,
                         const float* grad);

/// Backward of linearForwardBatchFast over `batch` rows: dW += X^T dY,
/// db += column sums of dY, and dx := dY W^T when `dx` is non-null.
void linearBackwardBatch(Linear& linear, const float* x, std::size_t batch,
                         const float* dy, float* dx);

// ---- loss heads -------------------------------------------------------------
//
// Each returns the loss of one row of logits (the formulas of the autograd
// losses) and, when the gradient pointer is non-null, writes
// scale * d(loss)/d(logits) into it.

/// Cross-entropy of softmax(logits[0..n)) against `label`.
float softmaxCrossEntropyRow(const float* logits, std::size_t n,
                             std::size_t label, float scale, float* dlogits);

/// Mean binary cross-entropy of sigmoid(logits) against targets in [0,1].
float bceWithLogitsRow(const float* logits, const float* targets,
                       std::size_t n, float scale, float* dlogits);

/// Mean squared error of pred against target.
float mseRow(const float* pred, const float* target, std::size_t n,
             float scale, float* dpred);

}  // namespace netsyn::nn
