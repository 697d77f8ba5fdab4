// The gate activation kernel (nn/activation.hpp): the array forms agree bit
// for bit with the scalar forms at every position and length, stay within
// 2e-7 of a double-precision reference, saturate to exact 0/1/-1, keep NaN,
// and give every LSTM engine the same h and c.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/activation.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "nn/training.hpp"
#include "util/rng.hpp"

namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

std::uint32_t bitsOf(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Every 10^-4 from -100 to 100, plus every 10^-6 around 0.
std::vector<float> denseSweep() {
  std::vector<float> xs;
  for (int i = -1000000; i <= 1000000; ++i)
    xs.push_back(static_cast<float>(i * 1e-4));
  for (int i = -20000; i <= 20000; ++i)
    xs.push_back(static_cast<float>(i * 1e-6));
  return xs;
}

double sigmoidRef(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

TEST(Activation, ArrayMatchesScalarBitwiseOnDenseSweep) {
  const auto xs = denseSweep();
  std::vector<float> s(xs.size()), t(xs.size());
  nn::sigmoid(xs.data(), s.data(), xs.size());
  nn::tanh(xs.data(), t.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(bitsOf(s[i]), bitsOf(nn::sigmoid(xs[i]))) << "x=" << xs[i];
    ASSERT_EQ(bitsOf(t[i]), bitsOf(nn::tanh(xs[i]))) << "x=" << xs[i];
  }
}

TEST(Activation, EveryLengthAndOffsetMatchesScalar) {
  Rng rng(7);
  for (std::size_t n = 1; n <= 9; ++n) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      std::vector<float> x(offset + n);
      for (auto& v : x) v = static_cast<float>(rng.uniformReal(-12, 12));
      std::vector<float> s(x.size()), t(x.size());
      nn::sigmoid(x.data() + offset, s.data() + offset, n);
      nn::tanh(x.data() + offset, t.data() + offset, n);
      for (std::size_t i = offset; i < x.size(); ++i) {
        EXPECT_EQ(bitsOf(s[i]), bitsOf(nn::sigmoid(x[i]))) << n << "/" << i;
        EXPECT_EQ(bitsOf(t[i]), bitsOf(nn::tanh(x[i]))) << n << "/" << i;
      }
      // In place gives the same bits as out of place.
      std::vector<float> inPlace = x;
      nn::tanh(inPlace.data() + offset, inPlace.data() + offset, n);
      for (std::size_t i = offset; i < x.size(); ++i)
        EXPECT_EQ(bitsOf(inPlace[i]), bitsOf(t[i]));
    }
  }
}

TEST(Activation, WithinTwoE7OfDoubleReference) {
  const auto xs = denseSweep();
  std::vector<float> s(xs.size()), t(xs.size());
  nn::sigmoid(xs.data(), s.data(), xs.size());
  nn::tanh(xs.data(), t.data(), xs.size());
  double sigmoidErr = 0.0, tanhErr = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sigmoidErr = std::max(sigmoidErr, std::fabs(s[i] - sigmoidRef(xs[i])));
    tanhErr = std::max(tanhErr, std::fabs(t[i] - std::tanh(double{xs[i]})));
  }
  EXPECT_LE(sigmoidErr, 2e-7);
  EXPECT_LE(tanhErr, 2e-7);
}

TEST(Activation, SaturatesExactlyAndKeepsNaN) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (float x : {88.0f, 100.0f, 1e30f, kInf}) {
    EXPECT_EQ(nn::sigmoid(x), 1.0f) << x;
    EXPECT_EQ(nn::sigmoid(-x), 0.0f) << x;
    EXPECT_EQ(nn::tanh(x), 1.0f) << x;
    EXPECT_EQ(nn::tanh(-x), -1.0f) << x;
  }
  EXPECT_EQ(nn::sigmoid(0.0f), 0.5f);
  EXPECT_EQ(nn::tanh(0.0f), 0.0f);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(nn::sigmoid(nan)));
  EXPECT_TRUE(std::isnan(nn::tanh(nan)));
  EXPECT_TRUE(std::isnan(nn::sigmoid(-nan)));
  EXPECT_TRUE(std::isnan(nn::tanh(-nan)));
}

// lstmStepFast, one row of lstmStepBatchFast and the fused training
// forward, two steps from the zero state. A hidden width of 7 puts every
// gate slice on a loop tail.
TEST(Activation, LstmEnginesAgreeBitwise) {
  constexpr std::size_t kIn = 5, kHid = 7, kBatch = 3, kSteps = 2, kRow = 1;
  Rng rng(11);
  nn::ParamStore store;
  nn::Lstm lstm(kIn, kHid, store, rng);
  std::vector<float> xs(kSteps * kBatch * kIn);
  for (auto& v : xs) v = static_cast<float>(rng.uniformReal(-3, 3));
  const auto input = [&](std::size_t t) {
    return xs.data() + t * kBatch * kIn;
  };

  nn::InferenceScratch scratch;
  std::vector<float> h(kHid, 0.0f), c(kHid, 0.0f);
  for (std::size_t t = 0; t < kSteps; ++t)
    nn::lstmStepFast(lstm, input(t) + kRow * kIn, h.data(), c.data(),
                     scratch);

  std::vector<float> hb(kBatch * kHid, 0.0f), cb(kBatch * kHid, 0.0f);
  for (std::size_t t = 0; t < kSteps; ++t)
    nn::lstmStepBatchFast(lstm, input(t), kBatch, hb.data(), cb.data(),
                          scratch);

  nn::LstmTape tape;
  tape.reset(lstm, kBatch, kSteps);
  std::copy(xs.begin(), xs.end(), tape.input(0));
  nn::lstmForwardTrain(lstm, tape);
  const float* ht = tape.hidden(kSteps - 1) + kRow * kHid;
  const float* ct = tape.c.data() + ((kSteps - 1) * kBatch + kRow) * kHid;

  for (std::size_t j = 0; j < kHid; ++j) {
    EXPECT_EQ(bitsOf(h[j]), bitsOf(hb[kRow * kHid + j])) << j;
    EXPECT_EQ(bitsOf(c[j]), bitsOf(cb[kRow * kHid + j])) << j;
    EXPECT_EQ(bitsOf(h[j]), bitsOf(ht[j])) << j;
    EXPECT_EQ(bitsOf(c[j]), bitsOf(ct[j])) << j;
  }
}
