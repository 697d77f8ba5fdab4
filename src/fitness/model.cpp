#include "fitness/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dsl/domain.hpp"
#include "dsl/interpreter.hpp"
#include "fitness/edit.hpp"
#include "nn/activation.hpp"

namespace netsyn::fitness {
namespace {

/// Per-step match features between a trace value and the example output:
/// [similarity = 1/(1+editDist), exact-match flag]. These give the model a
/// short path to the trace-vs-output comparison it must otherwise discover
/// from millions of samples (see DESIGN.md §5 on scaled-down training).
nn::Var stepMatchFeatures(const dsl::Value& traceValue,
                          const dsl::Value& output) {
  const auto dist = valueEditDistance(traceValue, output);
  nn::Matrix f(1, 2);
  f.at(0) = 1.0f / (1.0f + static_cast<float>(dist));
  f.at(1) = (dist == 0) ? 1.0f : 0.0f;
  return nn::constant(std::move(f));
}

/// 64-bit FNV-1a over (type tag + payload words). The lane-view path
/// fingerprints arena segments with the segment helpers below; they must
/// stay byte-for-byte identical to valueFingerprint so both paths hit the
/// same memo cells (that identity is what makes the encoded scores bitwise
/// equal to the scalar path's).
struct FnvMixer {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t x) {
    for (std::size_t b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t laneIntFingerprint(std::int32_t v) {
  FnvMixer f;
  f.mix(static_cast<std::uint64_t>(dsl::Type::Int));
  f.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  return f.h;
}

std::uint64_t laneListFingerprint(const std::int32_t* xs, std::size_t n) {
  FnvMixer f;
  f.mix(static_cast<std::uint64_t>(dsl::Type::List));
  f.mix(n);
  for (std::size_t i = 0; i < n; ++i)
    f.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(xs[i])));
  return f.h;
}

/// Fingerprint of a DSL value; segment helpers above are its two cases.
std::uint64_t valueFingerprint(const dsl::Value& v) {
  if (v.isInt()) return laneIntFingerprint(v.asInt());
  const auto& xs = v.asList();
  return laneListFingerprint(xs.data(), xs.size());
}

/// Seeds of the prefix-state memo keys. Each is a separate key space; the
/// seeds only keep an empty prefix from hashing to FNV's offset basis.
constexpr std::uint64_t kStepPrefixSeed = 0x5be0cd19137e2179ULL;
constexpr std::uint64_t kTokenPrefixSeed = 0x1f83d9abfb41bd6bULL;

/// Combined key of the edit-distance memo (trace fp mixed with output fp).
std::uint64_t editKey(std::uint64_t traceFp, std::uint64_t outputFp) {
  std::uint64_t key = traceFp;
  key ^= outputFp + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2);
  return key;
}

}  // namespace

NnffModel::NnffModel(NnffConfig config)
    : config_(config),
      resolvedDomain_(&dsl::resolveDomain(config.domain)),
      encoder_(config.encoder) {
  util::Rng rng(config_.seed);
  const std::size_t e = config_.embedDim;
  const std::size_t h = config_.hiddenDim;

  valueEmb_ = std::make_unique<nn::Embedding>(encoder_.vocabSize(), e,
                                              params_, rng);
  inputLstm_ = std::make_unique<nn::Lstm>(e, h, params_, rng);
  outputLstm_ = std::make_unique<nn::Lstm>(e, h, params_, rng);
  if (config_.useTrace) {
    funcEmb_ =
        std::make_unique<nn::Embedding>(funcVocabSize(), e, params_, rng);
    traceLstm_ = std::make_unique<nn::Lstm>(e, h, params_, rng);
    stepLstm_ = std::make_unique<nn::Lstm>(e + h + 2, h, params_, rng);
    featProj_ = std::make_unique<nn::Linear>(4, h, params_, rng);
  }
  ioFeatProj_ = std::make_unique<nn::Linear>(kIoFeatureDim, h, params_, rng);
  combine1_ = std::make_unique<nn::Lstm>(h, h, params_, rng);
  combine2_ = std::make_unique<nn::Lstm>(h, h, params_, rng);
  exampleLstm_ = std::make_unique<nn::Lstm>(h, h, params_, rng);
  fc1_ = std::make_unique<nn::Linear>(h, h, params_, rng);
  fc2_ = std::make_unique<nn::Linear>(h, outDim(), params_, rng);
}

std::size_t NnffModel::outDim() const {
  switch (config_.head) {
    case HeadKind::Classifier:
      return config_.numClasses;
    case HeadKind::Multilabel:
      return config_.multilabelDim == 0 ? funcVocabSize()
                                        : config_.multilabelDim;
    case HeadKind::Regression:
      return 1;
  }
  return 1;
}

std::size_t NnffModel::funcVocabSize() const {
  return resolvedDomain_->vocabSize();
}

std::size_t NnffModel::funcRow(dsl::FuncId id) const {
  return resolvedDomain_->localIndex(id);
}

nn::Var NnffModel::encodeTokens(const nn::Lstm& lstm,
                                const std::vector<std::size_t>& tokens) const {
  std::vector<nn::Var> seq;
  seq.reserve(tokens.size());
  for (std::size_t t : tokens) seq.push_back(valueEmb_->lookup(t));
  return lstm.encode(seq);
}

nn::Var NnffModel::exampleVector(const dsl::IOExample& example,
                                 const dsl::Program* candidate,
                                 const std::vector<dsl::Value>* trace) const {
  const nn::Var hIn =
      encodeTokens(*inputLstm_, encoder_.encodeInputs(example.inputs));
  const nn::Var hOut =
      encodeTokens(*outputLstm_, encoder_.encodeValue(example.output));

  // IO property signature (encoding.hpp): supplies the input-output
  // relations (sortedness, subset-ness, parity...) the paper's model learns
  // from its 4.2M-sample corpus.
  const auto ioFeats = ioSummaryFeatures(example.inputs, example.output);
  nn::Matrix ioF(1, kIoFeatureDim);
  for (std::size_t i = 0; i < kIoFeatureDim; ++i) ioF.at(i) = ioFeats[i];
  const nn::Var hIoFeat =
      nn::tanhOp(ioFeatProj_->forward(nn::constant(std::move(ioF))));

  std::vector<nn::Var> pieces = {hIn, hOut, hIoFeat};
  if (config_.useTrace) {
    if (candidate == nullptr || trace == nullptr)
      throw std::invalid_argument(
          "NnffModel: trace branch enabled but no candidate/trace given");
    if (trace->size() != candidate->length())
      throw std::invalid_argument("NnffModel: trace length != program length");
    std::vector<nn::Var> steps;
    steps.reserve(candidate->length());
    std::size_t exactSteps = 0;
    for (std::size_t k = 0; k < candidate->length(); ++k) {
      const nn::Var fVec = funcEmb_->lookup(funcRow(candidate->at(k)));
      const nn::Var tVec =
          encodeTokens(*traceLstm_, encoder_.encodeValue((*trace)[k]));
      const nn::Var mVec = stepMatchFeatures((*trace)[k], example.output);
      if ((*trace)[k] == example.output) ++exactSteps;
      steps.push_back(nn::concatCols(nn::concatCols(fVec, tVec), mVec));
    }
    const nn::Var hProg = stepLstm_->encode(steps);
    pieces.push_back(hProg);
    // Multiplicative matching between the output encoding and the program
    // encoding (interaction term the combiner LSTMs cannot form on their
    // own), plus a projected example-level match summary. Both shorten the
    // path from "candidate reproduces the specified output" to the head.
    pieces.push_back(nn::mulElem(hOut, hProg));
    const dsl::Value& finalValue = candidate->empty()
                                       ? dsl::Value::defaultFor(dsl::Type::List)
                                       : trace->back();
    const auto finalDist = valueEditDistance(finalValue, example.output);
    nn::Matrix g(1, 4);
    g.at(0) = 1.0f / (1.0f + static_cast<float>(finalDist));
    g.at(1) = (finalDist == 0) ? 1.0f : 0.0f;
    g.at(2) = (finalValue.type() == example.output.type()) ? 1.0f : 0.0f;
    g.at(3) = candidate->empty()
                  ? 0.0f
                  : static_cast<float>(exactSteps) /
                        static_cast<float>(candidate->length());
    pieces.push_back(nn::tanhOp(featProj_->forward(nn::constant(std::move(g)))));
  }

  // Two stacked combiner LSTMs (Figure 2a): layer 1 produces a hidden vector
  // per piece; layer 2 consumes those and its final state is H_i.
  return combine2_->encode(combine1_->encodeAll(pieces));
}

nn::Var NnffModel::head(const nn::Var& h) const {
  return fc2_->forward(nn::reluOp(fc1_->forward(h)));
}

nn::Var NnffModel::forward(
    const dsl::Spec& spec, const dsl::Program& candidate,
    const std::vector<std::vector<dsl::Value>>& traces) const {
  if (traces.size() < std::min(spec.size(), config_.maxExamples))
    throw std::invalid_argument("NnffModel: one trace per example required");
  std::vector<nn::Var> His;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  His.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    His.push_back(
        exampleVector(spec.examples[i], &candidate, &traces[i]));
  }
  return head(exampleLstm_->encode(His));
}

void NnffModel::exampleVectorFast(const dsl::IOExample& example,
                                  const dsl::Program* candidate,
                                  const std::vector<dsl::Value>* trace,
                                  float* out) const {
  const std::size_t h = config_.hiddenDim;
  const std::size_t e = config_.embedDim;

  // Piece buffers (at most 6 pieces of width h).
  std::vector<float> hIn(h), hOut(h), hProg(h), hMul(h), hFeat(h), hIoF(h);
  nn::lstmEncodeTokensFast(*inputLstm_, *valueEmb_,
                           encoder_.encodeInputs(example.inputs), hIn.data(),
                           scratch_);
  nn::lstmEncodeTokensFast(*outputLstm_, *valueEmb_,
                           encoder_.encodeValue(example.output), hOut.data(),
                           scratch_);
  const auto ioFeats = ioSummaryFeatures(example.inputs, example.output);
  nn::linearForwardFast(*ioFeatProj_, ioFeats.data(), hIoF.data());
  nn::tanh(hIoF.data(), hIoF.data(), h);

  std::vector<const float*> pieces = {hIn.data(), hOut.data(), hIoF.data()};
  std::vector<float> stepBuf;
  if (config_.useTrace) {
    // Program branch: per step, x_k = [funcEmb | traceEnc | match feats].
    const std::size_t stepWidth = e + h + 2;
    const std::size_t len = candidate->length();
    const std::uint64_t outputFp = valueFingerprint(example.output);
    stepBuf.resize(stepWidth * std::max<std::size_t>(len, 1));
    std::vector<const float*> steps;
    steps.reserve(len);
    std::size_t exactSteps = 0;
    for (std::size_t k = 0; k < len; ++k) {
      float* x = stepBuf.data() + k * stepWidth;
      const float* fRow =
          funcEmb_->table().data() + funcRow(candidate->at(k)) * e;
      std::copy(fRow, fRow + e, x);
      const std::uint64_t tvFp = valueFingerprint((*trace)[k]);
      const auto& tEnc = traceEncodingMemo((*trace)[k], tvFp);
      std::copy(tEnc.begin(), tEnc.end(), x + e);
      const auto dist =
          editDistanceMemo((*trace)[k], tvFp, outputFp, example.output);
      x[e + h] = 1.0f / (1.0f + static_cast<float>(dist));
      x[e + h + 1] = (dist == 0) ? 1.0f : 0.0f;
      if (dist == 0) ++exactSteps;
      steps.push_back(x);
    }
    nn::lstmEncodeVectorsFast(*stepLstm_, steps, hProg.data(), scratch_);
    for (std::size_t j = 0; j < h; ++j) hMul[j] = hOut[j] * hProg[j];
    const dsl::Value& finalValue =
        len == 0 ? dsl::kEmptyListValue : trace->back();
    const auto finalDist = editDistanceMemo(
        finalValue, valueFingerprint(finalValue), outputFp, example.output);
    float g[4];
    g[0] = 1.0f / (1.0f + static_cast<float>(finalDist));
    g[1] = (finalDist == 0) ? 1.0f : 0.0f;
    g[2] = (finalValue.type() == example.output.type()) ? 1.0f : 0.0f;
    g[3] = len == 0 ? 0.0f
                    : static_cast<float>(exactSteps) / static_cast<float>(len);
    nn::linearForwardFast(*featProj_, g, hFeat.data());
    nn::tanh(hFeat.data(), hFeat.data(), h);
    pieces.push_back(hProg.data());
    pieces.push_back(hMul.data());
    pieces.push_back(hFeat.data());
  }

  // Stacked combiners: layer 1 emits a hidden per piece, layer 2 fuses.
  std::vector<float> l1(h * pieces.size());
  {
    std::vector<float> hState(h, 0.0f), cState(h, 0.0f);
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      nn::lstmStepFast(*combine1_, pieces[i], hState.data(), cState.data(),
                       scratch_);
      std::copy(hState.begin(), hState.end(), l1.begin() + i * h);
    }
  }
  std::vector<const float*> l1Ptrs;
  for (std::size_t i = 0; i < pieces.size(); ++i)
    l1Ptrs.push_back(l1.data() + i * h);
  nn::lstmEncodeVectorsFast(*combine2_, l1Ptrs, out, scratch_);
}

std::vector<float> NnffModel::forwardFast(
    const dsl::Spec& spec, const dsl::Program& candidate,
    const std::vector<std::vector<dsl::Value>>& traces) const {
  if (traces.size() < std::min(spec.size(), config_.maxExamples))
    throw std::invalid_argument("NnffModel: one trace per example required");
  const std::size_t h = config_.hiddenDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  std::vector<float> His(h * std::max<std::size_t>(m, 1));
  std::vector<const float*> hiPtrs;
  for (std::size_t i = 0; i < m; ++i) {
    exampleVectorFast(spec.examples[i], &candidate, &traces[i],
                      His.data() + i * h);
    hiPtrs.push_back(His.data() + i * h);
  }
  std::vector<float> fused(h);
  nn::lstmEncodeVectorsFast(*exampleLstm_, hiPtrs, fused.data(), scratch_);
  std::vector<float> hidden(fc1_->outDim());
  nn::linearForwardFast(*fc1_, fused.data(), hidden.data());
  nn::reluFast(hidden.data(), hidden.size());
  std::vector<float> logits(fc2_->outDim());
  nn::linearForwardFast(*fc2_, hidden.data(), logits.data());
  return logits;
}

std::vector<float> NnffModel::forwardIOOnlyFast(const dsl::Spec& spec) const {
  if (config_.useTrace)
    throw std::logic_error(
        "NnffModel::forwardIOOnlyFast requires useTrace=false");
  const std::size_t h = config_.hiddenDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  std::vector<float> His(h * std::max<std::size_t>(m, 1));
  std::vector<const float*> hiPtrs;
  for (std::size_t i = 0; i < m; ++i) {
    exampleVectorFast(spec.examples[i], nullptr, nullptr, His.data() + i * h);
    hiPtrs.push_back(His.data() + i * h);
  }
  std::vector<float> fused(h);
  nn::lstmEncodeVectorsFast(*exampleLstm_, hiPtrs, fused.data(), scratch_);
  std::vector<float> hidden(fc1_->outDim());
  nn::linearForwardFast(*fc1_, fused.data(), hidden.data());
  nn::reluFast(hidden.data(), hidden.size());
  std::vector<float> logits(fc2_->outDim());
  nn::linearForwardFast(*fc2_, hidden.data(), logits.data());
  return logits;
}

const std::vector<float>* NnffModel::findTraceMemo(std::uint64_t key) const {
  const auto it = traceMemo_.find(key);
  if (it != traceMemo_.end()) {
    ++memoStats_.traceHits;
    return &it->second;
  }
  const auto pit = traceMemoPrev_.find(key);
  if (pit != traceMemoPrev_.end()) {
    ++memoStats_.traceHits;
    // Promote previous-generation hits so the working set survives the next
    // rotation. Node extraction moves the element wholesale — the mapped
    // vector's heap buffer (and thus the returned reference) stays put.
    auto node = traceMemoPrev_.extract(pit);
    return &traceMemo_.insert(std::move(node)).position->second;
  }
  ++memoStats_.traceMisses;
  return nullptr;
}

const std::vector<float>& NnffModel::insertTraceMemo(
    std::uint64_t key, const std::vector<std::size_t>& tokens) const {
  // Rotate generations at capacity: the current map becomes the previous
  // one (whose stale entries are dropped, their bucket array recycled), so
  // recently touched entries stay findable instead of being thrown away
  // wholesale. Live memory is bounded by 2x memoCapacity_ entries.
  if (traceMemo_.size() >= memoCapacity_) {
    std::swap(traceMemo_, traceMemoPrev_);
    traceMemo_.clear();
  }
  // Encode with traceLstm, resuming from the longest token prefix whose
  // state is stored (values in a population share heads: a sorted list and
  // its extension, a filter's survivors) and storing every new prefix.
  const std::size_t hd = config_.hiddenDim;
  const std::size_t n = tokens.size();
  tokenKeys_.resize(n);
  FnvMixer f{kTokenPrefixSeed};
  for (std::size_t t = 0; t < n; ++t) {
    f.mix(tokens[t]);
    tokenKeys_[t] = f.h;
  }
  std::size_t done = n;
  const float* state = nullptr;
  while (done > 0 && (state = tokenMemo_.find(tokenKeys_[done - 1])) ==
                         nullptr)
    --done;
  tokenState_.assign(2 * hd, 0.0f);
  float* h = tokenState_.data();
  float* c = h + hd;
  if (state != nullptr) std::copy(state, state + 2 * hd, h);
  memoStats_.tokenPrefixHits += done;
  memoStats_.tokenPrefixMisses += n - done;
  const std::size_t e = valueEmb_->dim();
  for (std::size_t t = done; t < n; ++t) {
    nn::lstmStepFast(*traceLstm_, valueEmb_->table().data() + tokens[t] * e,
                     h, c, scratch_);
    tokenMemo_.insert(tokenKeys_[t], h, c);
  }
  return traceMemo_.emplace(key, std::vector<float>(h, h + hd)).first->second;
}

const std::vector<float>& NnffModel::traceEncodingMemo(
    const dsl::Value& value, std::uint64_t valueFp) const {
  // Keyed by the value's own fingerprint so a hit skips tokenization too
  // (two values that clamp/truncate to the same token sequence just occupy
  // two entries with equal encodings — correct either way).
  if (const auto* hit = findTraceMemo(valueFp)) return *hit;
  return insertTraceMemo(valueFp, encoder_.encodeValue(value));
}

const std::vector<float>& NnffModel::traceEncodingMemoSpan(
    std::uint64_t fp, bool isInt, const std::int32_t* xs,
    std::size_t n) const {
  if (const auto* hit = findTraceMemo(fp)) return *hit;
  // Miss: tokenize straight from the segment into a reused scratch buffer —
  // same token sequence encodeValue would produce for the equivalent Value.
  if (isInt)
    encoder_.encodeIntInto(xs[0], laneTokenScratch_);
  else
    encoder_.encodeListInto(xs, n, laneTokenScratch_);
  return insertTraceMemo(fp, laneTokenScratch_);
}

const std::size_t* NnffModel::findEditMemo(std::uint64_t key) const {
  const auto it = editMemo_.find(key);
  if (it != editMemo_.end()) {
    ++memoStats_.editHits;
    return &it->second;
  }
  const auto pit = editMemoPrev_.find(key);
  if (pit != editMemoPrev_.end()) {
    ++memoStats_.editHits;
    auto node = editMemoPrev_.extract(pit);
    return &editMemo_.insert(std::move(node)).position->second;
  }
  ++memoStats_.editMisses;
  return nullptr;
}

std::size_t NnffModel::editDistanceMemo(const dsl::Value& traceValue,
                                        std::uint64_t traceFp,
                                        std::uint64_t outputFp,
                                        const dsl::Value& output) const {
  const std::uint64_t key = editKey(traceFp, outputFp);
  if (const auto* hit = findEditMemo(key)) return *hit;
  if (editMemo_.size() >= memoCapacity_) {
    std::swap(editMemo_, editMemoPrev_);
    editMemo_.clear();
  }
  const std::size_t dist = valueEditDistance(traceValue, output);
  editMemo_.emplace(key, dist);
  return dist;
}

std::size_t NnffModel::editDistanceMemoSpan(
    std::uint64_t traceFp, std::uint64_t outputFp, const std::int32_t* xs,
    std::size_t n, const std::vector<std::int32_t>& outToks) const {
  const std::uint64_t key = editKey(traceFp, outputFp);
  if (const auto* hit = findEditMemo(key)) return *hit;
  if (editMemo_.size() >= memoCapacity_) {
    std::swap(editMemo_, editMemoPrev_);
    editMemo_.clear();
  }
  const std::size_t dist =
      editDistanceSpans(xs, n, outToks.data(), outToks.size());
  editMemo_.emplace(key, dist);
  return dist;
}

void NnffModel::clearWeightCaches() const {
  traceMemo_.clear();
  traceMemoPrev_.clear();
  preludes_.clear();
  stepMemo_.clear();
  tokenMemo_.clear();
}

void NnffModel::load(const std::string& path) {
  nn::loadParams(params_, path);
  clearWeightCaches();
}

void NnffModel::setMemoCapacity(std::size_t cap) {
  memoCapacity_ = std::max<std::size_t>(cap, 1);
  preludeCapacity_ = std::min(memoCapacity_, kPreludeCapacity);
  stepMemo_.setCapacity(memoCapacity_);
  tokenMemo_.setCapacity(memoCapacity_);
  clearWeightCaches();
  editMemo_.clear();
  editMemoPrev_.clear();
  memoStats_ = MemoStats{};
}

void NnffModel::beginLaneCapture(const dsl::Spec& spec) const {
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  laneOutputFps_.resize(m);
  laneOutputToks_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const dsl::Value& out = spec.examples[i].output;
    laneOutputFps_[i] = valueFingerprint(out);
    if (out.isList())
      laneOutputToks_[i] = out.asList();
    else
      laneOutputToks_[i].assign(1, out.asInt());
  }
  laneCaptureSpec_ = &spec;
}

void NnffModel::encodeLaneTrace(const dsl::Spec& spec,
                                const dsl::Program& candidate,
                                const dsl::LaneTraceView& view,
                                EncodedTrace& out) const {
  if (!config_.useTrace)
    throw std::logic_error("NnffModel::encodeLaneTrace requires useTrace=true");
  if (&spec != laneCaptureSpec_) beginLaneCapture(spec);
  if (view.steps != candidate.length())
    throw std::invalid_argument("NnffModel: trace length != program length");
  const std::size_t e = config_.embedDim;
  const std::size_t h = config_.hiddenDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  const std::size_t len = candidate.length();
  const std::size_t stepWidth = e + h + 2;
  out.length = len;
  out.examples = m;
  out.stepWidth = stepWidth;
  out.steps.resize(m * len * stepWidth);
  out.stepFps.resize(m * len);
  out.gfeat.resize(m * 4);

  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t outputFp = laneOutputFps_[i];
    const std::vector<std::int32_t>& outToks = laneOutputToks_[i];
    std::size_t exactSteps = 0;
    std::size_t lastDist = 0;
    dsl::Type lastType = dsl::Type::List;
    for (std::size_t k = 0; k < len; ++k) {
      float* x = out.steps.data() + (i * len + k) * stepWidth;
      const float* fRow =
          funcEmb_->table().data() + funcRow(candidate.at(k)) * e;
      std::copy(fRow, fRow + e, x);
      std::size_t dist;
      if (view.stepType(k) == dsl::Type::Int) {
        const std::int32_t v = view.intAt(k, i);
        const std::uint64_t tvFp = laneIntFingerprint(v);
        out.stepFps[i * len + k] = tvFp;
        const auto& tEnc = traceEncodingMemoSpan(tvFp, /*isInt=*/true, &v, 1);
        std::copy(tEnc.begin(), tEnc.end(), x + e);
        dist = editDistanceMemoSpan(tvFp, outputFp, &v, 1, outToks);
        lastType = dsl::Type::Int;
      } else {
        std::size_t segLen = 0;
        const std::int32_t* seg = view.listAt(k, i, &segLen);
        const std::uint64_t tvFp = laneListFingerprint(seg, segLen);
        out.stepFps[i * len + k] = tvFp;
        const auto& tEnc =
            traceEncodingMemoSpan(tvFp, /*isInt=*/false, seg, segLen);
        std::copy(tEnc.begin(), tEnc.end(), x + e);
        dist = editDistanceMemoSpan(tvFp, outputFp, seg, segLen, outToks);
        lastType = dsl::Type::List;
      }
      x[e + h] = 1.0f / (1.0f + static_cast<float>(dist));
      x[e + h + 1] = (dist == 0) ? 1.0f : 0.0f;
      if (dist == 0) ++exactSteps;
      lastDist = dist;
    }
    // Example-level features. An empty program's final value is the default
    // (empty) list; otherwise the last step's distance is reused — it was
    // just computed against the same memo key the scalar path probes.
    std::size_t finalDist;
    dsl::Type finalType;
    if (len == 0) {
      finalType = dsl::Type::List;
      finalDist = editDistanceMemoSpan(laneListFingerprint(nullptr, 0),
                                       outputFp, nullptr, 0, outToks);
    } else {
      finalType = lastType;
      finalDist = lastDist;
    }
    float* g = out.gfeat.data() + i * 4;
    g[0] = 1.0f / (1.0f + static_cast<float>(finalDist));
    g[1] = (finalDist == 0) ? 1.0f : 0.0f;
    g[2] = (finalType == spec.examples[i].output.type()) ? 1.0f : 0.0f;
    g[3] = len == 0 ? 0.0f
                    : static_cast<float>(exactSteps) / static_cast<float>(len);
  }
}

std::vector<std::vector<float>> NnffModel::predictBatchEncoded(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const EncodedTrace*>& encoded) const {
  const std::size_t batch = candidates.size();
  if (batch == 0) return {};
  if (!config_.useTrace)
    throw std::logic_error(
        "NnffModel::predictBatchEncoded requires useTrace=true");
  if (encoded.size() != batch)
    throw std::invalid_argument("NnffModel: one encoded trace per candidate");
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  for (std::size_t b = 0; b < batch; ++b) {
    if (encoded[b] == nullptr || encoded[b]->examples < m)
      throw std::invalid_argument(
          "NnffModel: encoded trace covers too few examples");
  }
  return predictBatchImpl(spec, candidates, {}, &encoded);
}

std::vector<std::vector<float>> NnffModel::predictBatch(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const std::vector<std::vector<dsl::Value>>*>& traces)
    const {
  const std::size_t batch = candidates.size();
  if (batch == 0) return {};
  if (config_.useTrace && traces.size() != batch)
    throw std::invalid_argument("NnffModel: one trace set per candidate");
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  std::vector<const std::vector<dsl::Value>*> table;
  if (config_.useTrace) {
    table.resize(batch * m);
    for (std::size_t b = 0; b < batch; ++b) {
      if (traces[b] == nullptr || traces[b]->size() < m)
        throw std::invalid_argument("NnffModel: one trace per example required");
      for (std::size_t i = 0; i < m; ++i) table[b * m + i] = &(*traces[b])[i];
    }
  }
  return predictBatchImpl(spec, candidates, table);
}

std::vector<std::vector<float>> NnffModel::predictBatchRuns(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const std::vector<dsl::ExecResult>*>& runs) const {
  const std::size_t batch = candidates.size();
  if (batch == 0) return {};
  if (config_.useTrace && runs.size() != batch)
    throw std::invalid_argument("NnffModel: one run set per candidate");
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  std::vector<const std::vector<dsl::Value>*> table;
  if (config_.useTrace) {
    table.resize(batch * m);
    for (std::size_t b = 0; b < batch; ++b) {
      if (runs[b] == nullptr || runs[b]->size() < m)
        throw std::invalid_argument("NnffModel: one run per example required");
      for (std::size_t i = 0; i < m; ++i)
        table[b * m + i] = &(*runs[b])[i].trace;
    }
  }
  return predictBatchImpl(spec, candidates, table);
}

const NnffModel::SpecPrelude& NnffModel::specPrelude(const dsl::Spec& spec,
                                                     std::size_t m) const {
  FnvMixer key;
  key.mix(spec.fingerprint());
  key.mix(m);
  if (const auto it = preludes_.find(key.h); it != preludes_.end()) {
    ++memoStats_.preludeHits;
    return it->second;
  }
  ++memoStats_.preludeMisses;
  if (preludes_.size() >= preludeCapacity_) preludes_.clear();
  SpecPrelude& p = preludes_[key.h];
  const std::size_t h = config_.hiddenDim;

  // Spec encodings, batched across the m examples.
  std::vector<std::vector<std::size_t>> inTokens(m), outTokens(m);
  std::vector<float> ioFeatsAll(m * kIoFeatureDim);
  p.outputFps.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const dsl::IOExample& example = spec.examples[i];
    inTokens[i] = encoder_.encodeInputs(example.inputs);
    outTokens[i] = encoder_.encodeValue(example.output);
    p.outputFps[i] = valueFingerprint(example.output);
    const auto feats = ioSummaryFeatures(example.inputs, example.output);
    std::copy(feats.begin(), feats.end(),
              ioFeatsAll.begin() + i * kIoFeatureDim);
  }
  p.hIn.resize(m * h);
  p.hOut.resize(m * h);
  p.hIoF.resize(m * h);
  nn::lstmEncodeTokensBatchFast(*inputLstm_, *valueEmb_, inTokens,
                                p.hIn.data(), scratch_);
  nn::lstmEncodeTokensBatchFast(*outputLstm_, *valueEmb_, outTokens,
                                p.hOut.data(), scratch_);
  nn::linearForwardBatchFast(*ioFeatProj_, ioFeatsAll.data(), m,
                             p.hIoF.data());
  nn::tanh(p.hIoF.data(), p.hIoF.data(), p.hIoF.size());

  // The first three combiner pieces are spec-level, so both combiner LSTMs
  // advance through them here, once per example on a single row. Layer 2
  // consumes layer 1's hidden right after each step (equivalent to
  // encodeAll + encode, without materializing the l1 sequence).
  p.h1.assign(m * h, 0.0f);
  p.c1.assign(m * h, 0.0f);
  p.h2.assign(m * h, 0.0f);
  p.c2.assign(m * h, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    float* h1 = p.h1.data() + i * h;
    float* c1 = p.c1.data() + i * h;
    float* h2 = p.h2.data() + i * h;
    float* c2 = p.c2.data() + i * h;
    const float* pieces[3] = {p.hIn.data() + i * h, p.hOut.data() + i * h,
                              p.hIoF.data() + i * h};
    for (const float* piece : pieces) {
      nn::lstmStepFast(*combine1_, piece, h1, c1, scratch_);
      nn::lstmStepFast(*combine2_, h1, h2, c2, scratch_);
    }
  }
  return p;
}

std::vector<std::vector<float>> NnffModel::predictBatchImpl(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const std::vector<dsl::Value>*>& traceTable,
    const std::vector<const EncodedTrace*>* encoded) const {
  const std::size_t batch = candidates.size();
  const std::size_t h = config_.hiddenDim;
  const std::size_t e = config_.embedDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  const SpecPrelude& pre = specPrelude(spec, m);

  // His: example-major blocks of B x h (block i feeds exampleLstm step i).
  std::vector<float> His(std::max<std::size_t>(m, 1) * batch * h);
  std::vector<float> hProg(batch * h), cProg(batch * h), hMul(batch * h),
      hFeat(batch * h);
  std::vector<float> hC(batch * h), cC(batch * h), h2(batch * h),
      c2(batch * h);

  for (std::size_t i = 0; i < m; ++i) {
    const dsl::IOExample& example = spec.examples[i];
    const float* hOut = pre.hOut.data() + i * h;

    if (config_.useTrace) {
      // Program branch, batched over genes: step k runs all genes that are
      // at least k+1 long through stepLstm as one B x (e+h+2) block.
      const std::uint64_t outputFp = pre.outputFps[i];
      const std::size_t stepWidth = e + h + 2;
      std::size_t maxLen = 0;
      for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t traceLen = encoded ? (*encoded)[b]->length
                                             : traceTable[b * m + i]->size();
        if (traceLen != candidates[b]->length())
          throw std::invalid_argument(
              "NnffModel: trace length != program length");
        maxLen = std::max(maxLen, candidates[b]->length());
      }

      // Prefix keys: keys[b * maxLen + k] names row b's steps 0..k. Each
      // row starts from the longest prefix whose stepLstm state is
      // memoized, so only its remaining steps run. An encoded trace
      // without step fingerprints has no keys; it runs in full and stores
      // nothing.
      std::vector<std::uint64_t> keys(batch * maxLen, 0);
      // Scattered traces: each step's value fingerprint, kept for the row
      // loop below.
      std::vector<std::uint64_t> traceFps(encoded ? 0 : batch * maxLen);
      std::vector<std::size_t> start(batch, 0);
      std::vector<std::uint8_t> keyed(batch, 1);
      std::fill(hProg.begin(), hProg.end(), 0.0f);
      std::fill(cProg.begin(), cProg.end(), 0.0f);
      for (std::size_t b = 0; b < batch; ++b) {
        const dsl::Program& gene = *candidates[b];
        const std::size_t len = gene.length();
        const EncodedTrace* et = encoded ? (*encoded)[b] : nullptr;
        if (et != nullptr && et->stepFps.size() < (i + 1) * len) {
          keyed[b] = 0;
          continue;
        }
        std::uint64_t* rowKeys = keys.data() + b * maxLen;
        FnvMixer f{kStepPrefixSeed};
        f.mix(outputFp);
        for (std::size_t k = 0; k < len; ++k) {
          const std::uint64_t tvFp =
              et != nullptr ? et->stepFps[i * len + k]
                            : valueFingerprint((*traceTable[b * m + i])[k]);
          if (et == nullptr) traceFps[b * maxLen + k] = tvFp;
          f.mix(gene.at(k));
          f.mix(tvFp);
          rowKeys[k] = f.h;
        }
        std::size_t done = len;
        const float* state = nullptr;
        while (done > 0 &&
               (state = stepMemo_.find(rowKeys[done - 1])) == nullptr)
          --done;
        if (state != nullptr) {
          std::copy(state, state + h, hProg.begin() + b * h);
          std::copy(state + h, state + 2 * h, cProg.begin() + b * h);
        }
        start[b] = done;
        memoStats_.stepPrefixHits += done;
      }

      std::vector<float> xStep(batch * stepWidth, 0.0f);
      std::vector<std::uint8_t> active(batch);
      std::vector<std::size_t> exactSteps(batch, 0);
      std::vector<std::pair<std::uint64_t, std::size_t>> groups;
      for (std::size_t k = 0; k < maxLen; ++k) {
        bool any = false;
        for (std::size_t b = 0; b < batch; ++b) {
          active[b] = k >= start[b] && k < candidates[b]->length();
          any = any || active[b];
          float* x = xStep.data() + b * stepWidth;
          if (encoded) {
            // Lane path: the full stepLstm input row was produced by
            // encodeLaneTrace; feed it verbatim (exactSteps is already
            // folded into the encoded example features).
            if (!active[b]) continue;
            const EncodedTrace& et = *(*encoded)[b];
            const float* row =
                et.steps.data() + (i * et.length + k) * et.stepWidth;
            std::copy(row, row + stepWidth, x);
            continue;
          }
          // Scattered traces: every step is encoded, memoized prefix or
          // not, since exactSteps needs its distance and the memo counters
          // must not depend on which prefixes are stored.
          if (k >= candidates[b]->length()) continue;
          const float* fRow =
              funcEmb_->table().data() + funcRow(candidates[b]->at(k)) * e;
          std::copy(fRow, fRow + e, x);
          const dsl::Value& tv = (*traceTable[b * m + i])[k];
          const std::uint64_t tvFp = traceFps[b * maxLen + k];
          const auto& tEnc = traceEncodingMemo(tv, tvFp);
          std::copy(tEnc.begin(), tEnc.end(), x + e);
          const auto dist =
              editDistanceMemo(tv, tvFp, outputFp, example.output);
          x[e + h] = 1.0f / (1.0f + static_cast<float>(dist));
          x[e + h + 1] = (dist == 0) ? 1.0f : 0.0f;
          if (dist == 0) ++exactSteps[b];
        }
        if (!any) continue;

        // Rows whose keys agree at step k hold the same state and input:
        // the first (the leader) runs the step, the rest copy its result.
        groups.clear();
        for (std::size_t b = 0; b < batch; ++b)
          if (active[b] && keyed[b])
            groups.emplace_back(keys[b * maxLen + k], b);
        std::sort(groups.begin(), groups.end());
        for (std::size_t g = 1; g < groups.size(); ++g)
          if (groups[g].first == groups[g - 1].first)
            active[groups[g].second] = 0;

        nn::lstmStepBatchFast(*stepLstm_, xStep.data(), batch, hProg.data(),
                              cProg.data(), scratch_, active.data());
        for (std::size_t b = 0; b < batch; ++b)
          if (active[b]) ++memoStats_.stepPrefixMisses;
        std::size_t leader = 0;
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const std::size_t b = groups[g].second;
          if (g > 0 && groups[g].first == groups[g - 1].first) {
            std::copy_n(hProg.begin() + leader * h, h, hProg.begin() + b * h);
            std::copy_n(cProg.begin() + leader * h, h, cProg.begin() + b * h);
            ++memoStats_.stepPrefixHits;
            continue;
          }
          leader = b;
          stepMemo_.insert(groups[g].first, hProg.data() + b * h,
                           cProg.data() + b * h);
        }
      }
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t j = 0; j < h; ++j)
          hMul[b * h + j] = hOut[j] * hProg[b * h + j];
      std::vector<float> g(batch * 4);
      for (std::size_t b = 0; b < batch; ++b) {
        if (encoded) {
          const EncodedTrace& et = *(*encoded)[b];
          std::copy(et.gfeat.data() + i * 4, et.gfeat.data() + (i + 1) * 4,
                    g.data() + b * 4);
          continue;
        }
        const std::size_t len = candidates[b]->length();
        const dsl::Value& finalValue =
            len == 0 ? dsl::kEmptyListValue : (*traceTable[b * m + i]).back();
        const auto finalDist = editDistanceMemo(
            finalValue, valueFingerprint(finalValue), outputFp,
            example.output);
        g[b * 4 + 0] = 1.0f / (1.0f + static_cast<float>(finalDist));
        g[b * 4 + 1] = (finalDist == 0) ? 1.0f : 0.0f;
        g[b * 4 + 2] =
            (finalValue.type() == example.output.type()) ? 1.0f : 0.0f;
        g[b * 4 + 3] = len == 0 ? 0.0f
                                : static_cast<float>(exactSteps[b]) /
                                      static_cast<float>(len);
      }
      nn::linearForwardBatchFast(*featProj_, g.data(), batch, hFeat.data());
      nn::tanh(hFeat.data(), hFeat.data(), hFeat.size());
    }

    // Stacked combiners: every gene starts from the prelude's states after
    // the three spec pieces, and the gene pieces run batched.
    const float* h1s = pre.h1.data() + i * h;
    const float* c1s = pre.c1.data() + i * h;
    const float* h2s = pre.h2.data() + i * h;
    const float* c2s = pre.c2.data() + i * h;
    float* Hi = His.data() + i * batch * h;
    if (config_.useTrace) {
      for (std::size_t b = 0; b < batch; ++b) {
        std::copy_n(h1s, h, hC.begin() + b * h);
        std::copy_n(c1s, h, cC.begin() + b * h);
        std::copy_n(h2s, h, h2.begin() + b * h);
        std::copy_n(c2s, h, c2.begin() + b * h);
      }
      const float* genePieces[3] = {hProg.data(), hMul.data(), hFeat.data()};
      for (const float* piece : genePieces) {
        nn::lstmStepBatchFast(*combine1_, piece, batch, hC.data(), cC.data(),
                              scratch_);
        nn::lstmStepBatchFast(*combine2_, hC.data(), batch, h2.data(),
                              c2.data(), scratch_);
      }
      std::copy(h2.begin(), h2.end(), Hi);
    } else {
      for (std::size_t b = 0; b < batch; ++b) std::copy_n(h2s, h, Hi + b * h);
    }
  }

  std::vector<const float*> hiPtrs(m);
  for (std::size_t i = 0; i < m; ++i) hiPtrs[i] = His.data() + i * batch * h;
  std::vector<float> fused(batch * h);
  nn::lstmEncodeVectorsBatchFast(*exampleLstm_, hiPtrs, batch, fused.data(),
                                 scratch_);
  std::vector<float> hidden(batch * fc1_->outDim());
  nn::linearForwardBatchFast(*fc1_, fused.data(), batch, hidden.data());
  nn::reluFast(hidden.data(), hidden.size());
  std::vector<float> logits(batch * fc2_->outDim());
  nn::linearForwardBatchFast(*fc2_, hidden.data(), batch, logits.data());

  std::vector<std::vector<float>> out(batch);
  const std::size_t od = fc2_->outDim();
  for (std::size_t b = 0; b < batch; ++b)
    out[b].assign(logits.begin() + b * od, logits.begin() + (b + 1) * od);
  return out;
}

std::unique_ptr<NnffModel> NnffModel::clone() const {
  auto copy = std::make_unique<NnffModel>(config_);
  const auto& src = params_.params();
  const auto& dst = copy->params_.params();
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i]->value() = src[i]->value();
  return copy;
}

nn::Var NnffModel::forwardIOOnly(const dsl::Spec& spec) const {
  if (config_.useTrace)
    throw std::logic_error(
        "NnffModel::forwardIOOnly requires a model built with useTrace=false");
  std::vector<nn::Var> His;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  His.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    His.push_back(exampleVector(spec.examples[i], nullptr, nullptr));
  return head(exampleLstm_->encode(His));
}

}  // namespace netsyn::fitness
