#include "nn/training.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/activation.hpp"

namespace netsyn::nn {
namespace {

void transposeInto(const Matrix& w, Matrix& out) {
  if (out.rows() != w.cols() || out.cols() != w.rows())
    out = Matrix(w.cols(), w.rows());
  for (std::size_t i = 0; i < w.rows(); ++i)
    for (std::size_t j = 0; j < w.cols(); ++j) out(j, i) = w(i, j);
}

/// dw[i, :] += sum over the k rows of a_k[i] * d_k[:] (k <= 4), one pass
/// over dw per input index.
template <std::size_t K>
inline void addOuterRows(const float* const* xs, const float* const* ds,
                         std::size_t in, Matrix& dw) {
  const std::size_t n = dw.cols();
  for (std::size_t i = 0; i < in; ++i) {
    float a[K];
    bool any = false;
    for (std::size_t k = 0; k < K; ++k) {
      a[k] = xs[k][i];
      any = any || a[k] != 0.0f;
    }
    if (!any) continue;
    float* row = dw.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (std::size_t k = 0; k < K; ++k) s += a[k] * ds[k][j];
      row[j] += s;
    }
  }
}

/// Blocked dW += X^T dZ over `batch` rows (X is batch x xStride with the
/// first dW.rows() columns used, dZ is batch x dzStride with the first
/// dW.cols() used): the weight-gradient partner of addVecMatBatch, skipping
/// rows with active[b] == 0 (nullptr = all active).
void addOuterBatch(const float* x, std::size_t xStride, std::size_t batch,
                   const float* dz, std::size_t dzStride, Matrix& dw,
                   const std::uint8_t* active = nullptr) {
  const std::size_t in = dw.rows();
  const float* xs[4];
  const float* ds[4];
  std::size_t n = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    if (active != nullptr && active[b] == 0) continue;
    xs[n] = x + b * xStride;
    ds[n] = dz + b * dzStride;
    if (++n < 4) continue;
    addOuterRows<4>(xs, ds, in, dw);
    n = 0;
  }
  for (std::size_t k = 0; k < n; ++k) addOuterRows<1>(xs + k, ds + k, in, dw);
}

}  // namespace

void LstmTape::reset(const Lstm& lstm, std::size_t b, std::size_t t) {
  batch = b;
  steps = t;
  in = lstm.inDim();
  hid = lstm.hiddenDim();
  x.resize(t * b * in);
  mask.assign(t * b, 1);
  gates.resize(t * b * 4 * hid);
  c.resize(t * b * hid);
  tanhC.resize(t * b * hid);
  h.resize(t * b * hid);
  zeros.assign(b * hid, 0.0f);
}

void lstmForwardTrain(const Lstm& lstm, LstmTape& tape) {
  const std::size_t batch = tape.batch;
  const std::size_t in = tape.in;
  const std::size_t hd = tape.hid;
  const std::size_t g4 = 4 * hd;
  const std::size_t bh = batch * hd;
  const float* bias = lstm.biasRaw().data();
  for (std::size_t t = 0; t < tape.steps; ++t) {
    const std::uint8_t* active = tape.active(t);
    const float* hPrev = t == 0 ? tape.zeros.data() : tape.hidden(t - 1);
    const float* cPrev =
        t == 0 ? tape.zeros.data() : tape.c.data() + (t - 1) * bh;
    float* z = tape.gates.data() + t * batch * g4;
    float* c = tape.c.data() + t * bh;
    float* tc = tape.tanhC.data() + t * bh;
    float* h = tape.h.data() + t * bh;
    for (std::size_t b = 0; b < batch; ++b)
      if (active[b]) std::memcpy(z + b * g4, bias, g4 * sizeof(float));
    addVecMatBatch(tape.input(t), in, batch, in, lstm.weightX(), z, g4, active);
    if (t > 0)
      addVecMatBatch(hPrev, hd, batch, hd, lstm.weightH(), z, g4, active);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t r = b * hd;
      if (!active[b]) {
        std::memcpy(c + r, cPrev + r, hd * sizeof(float));
        std::memcpy(h + r, hPrev + r, hd * sizeof(float));
        continue;
      }
      lstmCellUpdate(z + b * g4, cPrev + r, c + r, tc + r, h + r, hd);
    }
  }
}

void lstmBackwardTrain(Lstm& lstm, LstmTape& tape, const float* dhFinal,
                       const float* dhSteps) {
  const std::size_t batch = tape.batch;
  const std::size_t in = tape.in;
  const std::size_t hd = tape.hid;
  const std::size_t g4 = 4 * hd;
  const std::size_t bh = batch * hd;
  tape.dx.assign(tape.steps * batch * in, 0.0f);
  if (dhFinal != nullptr)
    tape.dh.assign(dhFinal, dhFinal + bh);
  else
    tape.dh.assign(bh, 0.0f);
  tape.dc.assign(bh, 0.0f);
  tape.dz.resize(batch * g4);
  transposeInto(lstm.weightX(), tape.wxT);
  transposeInto(lstm.weightH(), tape.whT);
  Matrix& dWx = lstm.weightXGrad();
  Matrix& dWh = lstm.weightHGrad();
  float* db = lstm.biasGrad().data();
  float* dh = tape.dh.data();
  float* dc = tape.dc.data();
  float* dz = tape.dz.data();

  for (std::size_t t = tape.steps; t-- > 0;) {
    const std::uint8_t* active = tape.active(t);
    if (dhSteps != nullptr) {
      const float* ext = dhSteps + t * bh;
      for (std::size_t k = 0; k < bh; ++k) dh[k] += ext[k];
    }
    const float* gates = tape.gates.data() + t * batch * g4;
    const float* tc = tape.tanhC.data() + t * bh;
    const float* cPrev =
        t == 0 ? tape.zeros.data() : tape.c.data() + (t - 1) * bh;
    for (std::size_t b = 0; b < batch; ++b) {
      if (!active[b]) continue;  // frozen row: dh and dc pass straight through
      const float* gb = gates + b * g4;
      float* zb = dz + b * g4;
      const std::size_t r = b * hd;
      for (std::size_t j = 0; j < hd; ++j) {
        const float ig = gb[j], fg = gb[hd + j], gg = gb[2 * hd + j],
                    og = gb[3 * hd + j];
        const float dhj = dh[r + j];
        const float dcj = dc[r + j] + dhj * og * (1.0f - tc[r + j] * tc[r + j]);
        zb[j] = dcj * gg * ig * (1.0f - ig);
        zb[hd + j] = dcj * cPrev[r + j] * fg * (1.0f - fg);
        zb[2 * hd + j] = dcj * ig * (1.0f - gg * gg);
        zb[3 * hd + j] = dhj * tc[r + j] * og * (1.0f - og);
        dc[r + j] = dcj * fg;
      }
      for (std::size_t j = 0; j < g4; ++j) db[j] += zb[j];
    }
    addOuterBatch(tape.input(t), in, batch, dz, g4, dWx, active);
    addVecMatBatch(dz, g4, batch, g4, tape.wxT, tape.dx.data() + t * batch * in,
                   in, active);
    if (t == 0) break;  // the initial state is a constant
    addOuterBatch(tape.h.data() + (t - 1) * bh, hd, batch, dz, g4, dWh, active);
    for (std::size_t b = 0; b < batch; ++b)
      if (active[b]) std::memset(dh + b * hd, 0, hd * sizeof(float));
    addVecMatBatch(dz, g4, batch, g4, tape.whT, dh, hd, active);
  }
}

void lstmTokensForwardTrain(
    const Lstm& lstm, const Embedding& embedding,
    const std::vector<std::vector<std::size_t>>& tokens, LstmTape& tape) {
  const std::size_t batch = tokens.size();
  const std::size_t e = embedding.dim();
  std::size_t maxLen = 0;
  for (const auto& seq : tokens) maxLen = std::max(maxLen, seq.size());
  tape.reset(lstm, batch, maxLen);
  const float* table = embedding.table().data();
  for (std::size_t t = 0; t < maxLen; ++t) {
    std::uint8_t* active = tape.active(t);
    float* x = tape.input(t);
    for (std::size_t b = 0; b < batch; ++b) {
      active[b] = t < tokens[b].size() ? 1 : 0;
      if (active[b])
        std::memcpy(x + b * e, table + tokens[b][t] * e, e * sizeof(float));
    }
  }
  lstmForwardTrain(lstm, tape);
}

void lstmTokensBackwardTrain(
    Lstm& lstm, Embedding& embedding,
    const std::vector<std::vector<std::size_t>>& tokens, LstmTape& tape,
    const float* dhFinal) {
  lstmBackwardTrain(lstm, tape, dhFinal, nullptr);
  const std::size_t e = embedding.dim();
  for (std::size_t b = 0; b < tokens.size(); ++b)
    for (std::size_t t = 0; t < tokens[b].size(); ++t)
      embeddingScatterAdd(embedding, tokens[b][t], tape.inputGrad(t) + b * e);
}

void embeddingScatterAdd(Embedding& embedding, std::size_t token,
                         const float* grad) {
  const std::size_t e = embedding.dim();
  float* row = embedding.tableGrad().data() + token * e;
  for (std::size_t j = 0; j < e; ++j) row[j] += grad[j];
}

void linearBackwardBatch(Linear& linear, const float* x, std::size_t batch,
                         const float* dy, float* dx) {
  const std::size_t in = linear.inDim();
  const std::size_t out = linear.outDim();
  addOuterBatch(x, in, batch, dy, out, linear.weightGrad());
  float* db = linear.biasGrad().data();
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t j = 0; j < out; ++j) db[j] += dy[b * out + j];
  if (dx == nullptr) return;
  const float* w = linear.weight().data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dyb = dy + b * out;
    for (std::size_t i = 0; i < in; ++i) {
      const float* row = w + i * out;
      float s = 0.0f;
      for (std::size_t j = 0; j < out; ++j) s += dyb[j] * row[j];
      dx[b * in + i] = s;
    }
  }
}

float softmaxCrossEntropyRow(const float* logits, std::size_t n,
                             std::size_t label, float scale, float* dlogits) {
  // softmaxValue's arithmetic, with each probability recomputed where it is
  // used instead of stored.
  const float mx = *std::max_element(logits, logits + n);
  float sum = 0.0f;
  for (std::size_t j = 0; j < n; ++j) sum += std::exp(logits[j] - mx);
  if (dlogits != nullptr)
    for (std::size_t j = 0; j < n; ++j)
      dlogits[j] = scale * (std::exp(logits[j] - mx) / sum -
                            (j == label ? 1.0f : 0.0f));
  return -std::log(std::max(std::exp(logits[label] - mx) / sum, 1e-12f));
}

float bceWithLogitsRow(const float* logits, const float* targets,
                       std::size_t n, float scale, float* dlogits) {
  const float inv = 1.0f / static_cast<float>(n);
  float loss = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = logits[i];
    const float t = targets[i];
    loss += std::max(x, 0.0f) - x * t + std::log1p(std::exp(-std::fabs(x)));
    if (dlogits != nullptr) dlogits[i] = scale * inv * (sigmoid(x) - t);
  }
  return loss * inv;
}

float mseRow(const float* pred, const float* target, std::size_t n,
             float scale, float* dpred) {
  const float inv = 1.0f / static_cast<float>(n);
  float loss = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    loss += d * d;
    if (dpred != nullptr) dpred[i] = scale * inv * 2.0f * d;
  }
  return loss * inv;
}

}  // namespace netsyn::nn
