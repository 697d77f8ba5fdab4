// Branch-free sigmoid and tanh: the gate activations of every LSTM engine.
//
// Inference (lstmStepFast, lstmStepBatchFast), fused training
// (lstmForwardTrain), autograd (sigmoidOp, tanhOp, bceWithLogits) and the
// fitness model's tanh projections all activate through these functions, so
// the engines agree bit for bit where their arithmetic does.
//
// The body is a Cephes-style single-precision exp on four lanes of a GCC/
// Clang vector extension, which lowers to SSE2 on x86-64 and NEON on
// aarch64 with no extra flags:
//   - clamp x to [-87, 88], the range where exp(x) is a normal float;
//   - n = round(x * log2(e)) by adding 1.5 * 2^23, which leaves n in the
//     low mantissa bits; r = x - n * ln 2 in two parts (Cody-Waite);
//   - exp(r) by Cephes' degree-5 polynomial, times 2^n built straight in
//     the exponent bits.
// sigmoid(x) = 1 / (1 + exp(-x)) and tanh(x) = (e - 1) / (e + 1) with
// e = exp(2x), which costs what 1 - 2 / (1 + e) does and rounds less near
// -1. Against a double-precision reference the absolute error is at most
// 8.9e-8 (sigmoid) and 1.4e-7 (tanh, 1.8e-7 in the 1 - 2 / (1 + e) form)
// over all of float; tests/test_activation.cpp bounds both by 2e-7.
// Saturated inputs give exactly 0, 1 and -1, and NaN stays NaN.
//
// No libm call is made, and every step is a correctly rounded IEEE add,
// multiply or divide, so the result depends only on the input and the
// compiled code: not on the host's glibc. A scalar call and the loop tail of
// the array form run the same four-lane body on a padded vector, so every
// element gets the same bits whatever its position or the array's length.
//
// The kernel is written with explicit vectors rather than as a scalar loop
// left to the auto-vectorizer: under GCC's default -ftrapping-math the clamp
// is not if-converted, and the loop is rejected for control flow.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace netsyn::nn {
namespace activation_detail {

using Vec4 = float __attribute__((vector_size(16)));
using Bits4 = std::uint32_t __attribute__((vector_size(16)));

constexpr Vec4 splat(float v) { return Vec4{v, v, v, v}; }

inline Bits4 bits(Vec4 v) { return std::bit_cast<Bits4>(v); }
inline Vec4 fromBits(Bits4 b) { return std::bit_cast<Vec4>(b); }

/// Lanes of `a` where a < b (a NaN lane compares false).
inline Bits4 lessThan(Vec4 a, Vec4 b) { return (Bits4)(a < b); }

/// Lanes of `a` where `mask` is set, of `b` elsewhere.
inline Vec4 select(Bits4 mask, Vec4 a, Vec4 b) {
  return fromBits((bits(a) & mask) | (bits(b) & ~mask));
}

/// exp(x) with x clamped to [-87, 88]; NaN lanes give NaN.
inline Vec4 exp4(Vec4 x) {
  constexpr Vec4 kLo = splat(-87.0f);
  constexpr Vec4 kHi = splat(88.0f);
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
  constexpr std::uint32_t kRoundBits = 0x4B400000u;
  x = select(lessThan(x, kLo), kLo, x);
  x = select(lessThan(kHi, x), kHi, x);
  // t's low mantissa bits hold n = round(x * log2 e) in two's complement.
  const Vec4 t = x * 1.44269504088896341f + kRound;
  const Vec4 n = t - kRound;
  Vec4 r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  Vec4 p = 1.9875691500e-4f * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  // 2^n: the biased exponent n + 127 (in [1, 254] after the clamp).
  const Bits4 scale = (bits(t) - kRoundBits + 127u) << 23;
  return p * fromBits(scale);
}

inline Vec4 sigmoid4(Vec4 x) {
  constexpr Vec4 kFlush = splat(-87.0f);
  const Vec4 s = 1.0f / (1.0f + exp4(-x));
  // Below -87 the quotient is denormal, and at the clamp it is not 0:
  // return exactly 0 there.
  return select(lessThan(x, kFlush), splat(0.0f), s);
}

inline Vec4 tanh4(Vec4 x) {
  const Vec4 e = exp4(x + x);
  return (e - 1.0f) / (e + 1.0f);
}

/// y[i] = kernel(x[i]) for i < n, four at a time; the last n % 4 elements
/// run through one zero-padded vector.
template <Vec4 (*Kernel)(Vec4)>
inline void apply(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Vec4 v;
    std::memcpy(&v, x + i, sizeof v);
    v = Kernel(v);
    std::memcpy(y + i, &v, sizeof v);
  }
  if (i < n) {
    Vec4 v = {};
    std::memcpy(&v, x + i, (n - i) * sizeof(float));
    v = Kernel(v);
    std::memcpy(y + i, &v, (n - i) * sizeof(float));
  }
}

}  // namespace activation_detail

/// y[i] := sigmoid(x[i]) for i < n; y may alias x.
inline void sigmoid(const float* x, float* y, std::size_t n) {
  activation_detail::apply<activation_detail::sigmoid4>(x, y, n);
}

/// y[i] := tanh(x[i]) for i < n; y may alias x.
inline void tanh(const float* x, float* y, std::size_t n) {
  activation_detail::apply<activation_detail::tanh4>(x, y, n);
}

/// Scalar forms: the same bits as the array forms for the same input.
inline float sigmoid(float x) {
  return activation_detail::sigmoid4(activation_detail::Vec4{x})[0];
}
inline float tanh(float x) {
  return activation_detail::tanh4(activation_detail::Vec4{x})[0];
}

}  // namespace netsyn::nn
