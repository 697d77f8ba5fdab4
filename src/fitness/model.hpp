// The neural fitness-function model (paper Figure 2).
//
// Per IO example i, three encoders produce hidden vectors:
//   h_in   = LSTM over the embedded input tokens,
//   h_out  = LSTM over the embedded output tokens,
//   h_prog = LSTM over program steps, where step k is the function
//            embedding of f_k concatenated with an LSTM encoding of the
//            trace value t_k (Figure 2a, bottom row).
// Two stacked combiner LSTMs fuse [h_in, h_out, h_prog] into H_i; an
// example-level LSTM fuses {H_i} across the m examples (Figure 2b); two
// fully connected layers produce the output head:
//   Classifier  - softmax over fitness classes 0..numClasses-1 (f_CF, f_LCS)
//   Multilabel  - 41 sigmoid outputs, the function probability map (f_FP);
//                 per Balog et al. this head conditions on IO only, so the
//                 program/trace branch is skipped (useTrace = false)
//   Regression  - single scalar fitness (the paper's §5.3.1 ablation)
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dsl/program.hpp"
#include "dsl/spec.hpp"
#include "fitness/encoding.hpp"
#include "fitness/prefix_memo.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"

namespace netsyn::dsl {
struct Domain;         // domain.hpp
struct LaneTraceView;  // lanes.hpp
}

namespace netsyn::fitness {

/// One candidate's NN-ready trace features, encoded straight from a
/// LaneTraceView by NnffModel::encodeLaneTrace: per (example i, step k) the
/// full stepLstm input row [funcEmb | trace encoding | match features] and
/// the fingerprint of the step's trace value, plus the four example-level
/// summary features. predictBatchEncoded feeds the rows into the batched
/// LSTMs directly, so the lane path never materializes a trace Value; the
/// fingerprints key its program-prefix state memo.
struct EncodedTrace {
  std::size_t length = 0;     ///< candidate length (steps per example)
  std::size_t examples = 0;   ///< encoded examples: min(spec size, maxExamples)
  std::size_t stepWidth = 0;  ///< embedDim + hiddenDim + 2
  std::vector<float> steps;   ///< rows at [(i * length + k) * stepWidth]
  std::vector<std::uint64_t> stepFps;  ///< [i * length + k]: fp of t_k
  std::vector<float> gfeat;   ///< [i * 4]: final-dist features, exact fraction
};

enum class HeadKind : std::uint8_t { Classifier, Multilabel, Regression };

/// One row of a training minibatch: `candidate` and its per-example traces
/// (as in NnffModel::forward) graded against `spec`. The IO-only model
/// reads the spec alone and ignores the other two.
struct TrainRow {
  const dsl::Spec* spec = nullptr;
  const dsl::Program* candidate = nullptr;
  const std::vector<std::vector<dsl::Value>>* traces = nullptr;
};

/// Activations of one training minibatch (defined in model_train.cpp).
struct TrainTape;
struct TrainTapeDeleter {
  void operator()(TrainTape* tape) const;
};

struct NnffConfig {
  EncoderConfig encoder;
  std::size_t embedDim = 16;
  std::size_t hiddenDim = 32;
  std::size_t numClasses = 6;  ///< classifier classes 0..L for L=5 targets
  std::size_t maxExamples = 5; ///< IO examples consumed per spec
  HeadKind head = HeadKind::Classifier;
  bool useTrace = true;        ///< false for the FP (IO-only) model
  std::uint64_t seed = 1;      ///< weight-init seed
  /// Output width of a Multilabel head: the domain's vocabulary size (0
  /// means default) for the FP probability map, kNumFunctions^2 for the
  /// §5.3.1 bigram model (list domain only).
  std::size_t multilabelDim = 0;
  /// The DSL domain the model grades: sizes the function-embedding table
  /// and the default Multilabel width, and maps program FuncIds to
  /// embedding rows. nullptr = list domain, whose local indices equal
  /// global FuncIds — weight shapes and forward passes are then exactly
  /// the pre-domain model's.
  const dsl::Domain* domain = nullptr;
};

class NnffModel {
 public:
  explicit NnffModel(NnffConfig config);

  NnffModel(const NnffModel&) = delete;
  NnffModel& operator=(const NnffModel&) = delete;

  const NnffConfig& config() const { return config_; }
  const TokenEncoder& encoder() const { return encoder_; }
  nn::ParamStore& params() { return params_; }
  const nn::ParamStore& params() const { return params_; }

  /// Output width: numClasses, the domain vocabulary size, or 1 depending
  /// on the head.
  std::size_t outDim() const;

  /// Rows of the function-embedding table: the domain's vocabulary size
  /// (kNumFunctions for the list domain).
  std::size_t funcVocabSize() const;

  /// Autograd forward pass: logits (1 x outDim). `traces[i]` is the
  /// execution trace of `candidate` on spec example i (traces[i].size() ==
  /// candidate.length()). Only the first maxExamples examples are consumed.
  /// This is the reference definition of the model: tests use it as the
  /// forward oracle of the fast paths and, through nn::backward, as the
  /// gradient oracle of trainForward/trainBackward. No production path
  /// builds it.
  nn::Var forward(const dsl::Spec& spec, const dsl::Program& candidate,
                  const std::vector<std::vector<dsl::Value>>& traces) const;

  /// IO-only autograd forward (FP model): logits (1 x outDim). Test oracle,
  /// like forward().
  nn::Var forwardIOOnly(const dsl::Spec& spec) const;

  /// Tape-free training pass over a minibatch, piece for piece the math of
  /// forward()/forwardIOOnly(). trainForward runs every sequence of the
  /// batch (each example's tokens, each trace value, each program) as
  /// masked B x H LSTM batches on the inference kernels, records the
  /// activations into an arena sized to one minibatch, and returns the
  /// rows' logits (rows.size() x outDim, row-major). trainBackward takes
  /// d(loss)/d(logits) in the same layout and accumulates the parameter
  /// gradients into params()' gradient buffers. A training pass clears the
  /// fast paths' weight-dependent caches (clearWeightCaches).
  /// Not thread-safe; one model trains on one thread.
  const std::vector<float>& trainForward(const std::vector<TrainRow>& rows);
  void trainBackward(const float* dlogits);

  /// Allocation-free forward passes producing raw logits. Numerically
  /// identical to forward()/forwardIOOnly() (asserted by tests) but ~3-4x
  /// faster; used for single-gene scoring. Not thread-safe (reuses internal
  /// scratch buffers); clone the model per worker thread.
  std::vector<float> forwardFast(
      const dsl::Spec& spec, const dsl::Program& candidate,
      const std::vector<std::vector<dsl::Value>>& traces) const;
  std::vector<float> forwardIOOnlyFast(const dsl::Spec& spec) const;

  /// Population-batched forward pass: row i of the result is the logits of
  /// candidates[i] (bitwise identical to forwardFast on the same gene). The
  /// GA's hot path: spec encodings are computed once per spec (the prelude
  /// cache), repeated trace values hit a memo, no LSTM prefix already run
  /// is run again (the prefix-state memos), and every LSTM/linear layer
  /// runs the whole population as one matrix-matrix product.
  /// `traces[i]` are candidate i's per-example traces (as in forwardFast).
  /// Not thread-safe; clone the model per worker thread.
  std::vector<std::vector<float>> predictBatch(
      const dsl::Spec& spec,
      const std::vector<const dsl::Program*>& candidates,
      const std::vector<const std::vector<std::vector<dsl::Value>>*>& traces)
      const;

  /// predictBatch over the evaluator's execution results directly:
  /// `runs[i]` are candidate i's per-example ExecResults and the traces are
  /// read in place, so the GA's hot path never deep-copies a trace. Same
  /// output as predictBatch on the copied traces.
  std::vector<std::vector<float>> predictBatchRuns(
      const dsl::Spec& spec,
      const std::vector<const dsl::Program*>& candidates,
      const std::vector<const std::vector<dsl::ExecResult>*>& runs) const;

  /// The lane-view trace path. beginLaneCapture caches per-example output
  /// fingerprints and token spans for `spec`; encodeLaneTrace then fills
  /// `out` with `candidate`'s step rows and example features read straight
  /// from the SoA lane blocks — fingerprints over the lane segment, memoized
  /// encodings copied into LSTM-ready rows, no Value materialized anywhere.
  /// The rows are bitwise-identical to what predictBatchRuns computes from
  /// scattered traces (same memos, same float expressions), so
  /// predictBatchEncoded's scores equal the scalar path exactly — pinned by
  /// the differential fuzz suite. Not thread-safe, like the other fast paths.
  void beginLaneCapture(const dsl::Spec& spec) const;
  void encodeLaneTrace(const dsl::Spec& spec, const dsl::Program& candidate,
                       const dsl::LaneTraceView& view,
                       EncodedTrace& out) const;

  /// predictBatch over pre-encoded lane traces: `encoded[i]` must come from
  /// encodeLaneTrace on candidates[i] against the same spec. Output is
  /// bitwise-identical to predictBatchRuns on the scattered traces.
  std::vector<std::vector<float>> predictBatchEncoded(
      const dsl::Spec& spec,
      const std::vector<const dsl::Program*>& candidates,
      const std::vector<const EncodedTrace*>& encoded) const;

  /// Hit/miss counters of the scoring memos, for tests and service stats
  /// (proves the two-generation eviction keeps the hit rate high when the
  /// working set sits at the capacity boundary). The prefix-state memos
  /// count LSTM steps: a hit is a step loaded or shared instead of run.
  struct MemoStats {
    std::uint64_t traceHits = 0, traceMisses = 0;
    std::uint64_t editHits = 0, editMisses = 0;
    std::uint64_t preludeHits = 0, preludeMisses = 0;  ///< per batch call
    std::uint64_t stepPrefixHits = 0, stepPrefixMisses = 0;    ///< stepLstm
    std::uint64_t tokenPrefixHits = 0, tokenPrefixMisses = 0;  ///< traceLstm
  };
  MemoStats memoStats() const { return memoStats_; }

  /// Test hook: shrinks the memo capacity (entries per generation map) so
  /// boundary behavior is testable without 32k distinct values; the spec
  /// prelude and prefix-state memos clear at min(cap, their own capacity).
  /// Clears every memo and the counters.
  void setMemoCapacity(std::size_t cap);

  /// Deep copy with identical parameters and its own scratch/memo buffers —
  /// the unit of per-worker isolation for the parallel experiment runner.
  std::unique_ptr<NnffModel> clone() const;

  void save(const std::string& path) const { nn::saveParams(params_, path); }
  /// Loads weights and drops every cache computed under the old ones.
  void load(const std::string& path);

 private:
  /// Embeds a token sequence and encodes it with `lstm`.
  nn::Var encodeTokens(const nn::Lstm& lstm,
                       const std::vector<std::size_t>& tokens) const;

  /// Embedding row of a program function: its domain-local index (identity
  /// for the list domain).
  std::size_t funcRow(dsl::FuncId id) const;

  /// H_i for one example (program/trace branch included iff useTrace).
  nn::Var exampleVector(const dsl::IOExample& example,
                        const dsl::Program* candidate,
                        const std::vector<dsl::Value>* trace) const;

  nn::Var head(const nn::Var& h) const;

  /// Fast-path helpers (see model.cpp).
  void exampleVectorFast(const dsl::IOExample& example,
                         const dsl::Program* candidate,
                         const std::vector<dsl::Value>* trace,
                         float* out) const;

  /// Memoized traceLstm encoding of one trace value; `valueFp` is the
  /// value's fingerprint, computed once per step by the caller and shared
  /// with editDistanceMemo. The encoding is a pure function of the value,
  /// so entries never go stale. Bounded by a two-generation scheme (see
  /// the memo members below). On a hit neither the token sequence nor the
  /// encoding is recomputed.
  const std::vector<float>& traceEncodingMemo(const dsl::Value& value,
                                              std::uint64_t valueFp) const;

  /// Segment counterpart for the lane-view path: same memo maps, same keys
  /// (the fingerprint of the equivalent Value), tokens drawn straight from
  /// the arena segment (`xs[0]` for an int cell).
  const std::vector<float>& traceEncodingMemoSpan(std::uint64_t fp,
                                                  bool isInt,
                                                  const std::int32_t* xs,
                                                  std::size_t n) const;

  /// Memo plumbing shared by the Value and span entry points: lookup with
  /// previous-generation promotion, and miss-path insert (rotating the
  /// generations at capacity).
  const std::vector<float>* findTraceMemo(std::uint64_t key) const;
  const std::vector<float>& insertTraceMemo(
      std::uint64_t key, const std::vector<std::size_t>& tokens) const;
  const std::size_t* findEditMemo(std::uint64_t key) const;

  /// Memoized valueEditDistance(traceValue, output); both fingerprints are
  /// precomputed by the caller (the output's once per example, the trace
  /// value's once per step). Trace values recur heavily across a
  /// population's shared ancestry, and the DP behind a miss is O(|a|*|b|)
  /// with three allocations.
  std::size_t editDistanceMemo(const dsl::Value& traceValue,
                               std::uint64_t traceFp, std::uint64_t outputFp,
                               const dsl::Value& output) const;

  /// Segment counterpart (lane-view path): the trace side is an arena
  /// segment, the output side the cached token span from beginLaneCapture.
  std::size_t editDistanceMemoSpan(std::uint64_t traceFp,
                                   std::uint64_t outputFp,
                                   const std::int32_t* xs, std::size_t n,
                                   const std::vector<std::int32_t>& outToks)
      const;

  /// Everything predictBatchImpl computes from the spec alone, per example
  /// i < m: the three spec pieces [hIn | hOut | hIoF], the (h, c) of both
  /// combiner LSTMs after consuming them, and the output's fingerprint.
  struct SpecPrelude {
    std::vector<float> hIn, hOut, hIoF;  ///< m x h each
    std::vector<float> h1, c1, h2, c2;   ///< m x h each
    std::vector<std::uint64_t> outputFps;  ///< m
  };

  /// The prelude of (spec, m), computed on the first call and cached by
  /// content (Spec::fingerprint), so a spec freed and another allocated at
  /// its address cannot alias. Same collision reasoning as traceMemo_.
  const SpecPrelude& specPrelude(const dsl::Spec& spec, std::size_t m) const;

  /// Drops every cache whose entries depend on the weights: the trace
  /// encodings, the spec preludes and both prefix-state memos. Called
  /// wherever the weights change under the model (load, trainForward) and
  /// by setMemoCapacity.
  void clearWeightCaches() const;

  /// Shared core of predictBatch/predictBatchRuns/predictBatchEncoded:
  /// traceTable[b * m + i] points at candidate b's trace on example i (empty
  /// when !useTrace). When `encoded` is non-null it supplies the step rows
  /// and example features instead and traceTable is ignored — every LSTM and
  /// combiner below the feed is the same code either way, which is what
  /// makes the two paths bitwise-identical.
  std::vector<std::vector<float>> predictBatchImpl(
      const dsl::Spec& spec,
      const std::vector<const dsl::Program*>& candidates,
      const std::vector<const std::vector<dsl::Value>*>& traceTable,
      const std::vector<const EncodedTrace*>* encoded = nullptr) const;

  NnffConfig config_;
  const dsl::Domain* resolvedDomain_;  ///< config_.domain, null -> list
  TokenEncoder encoder_;
  nn::ParamStore params_;
  std::unique_ptr<nn::Embedding> valueEmb_;
  std::unique_ptr<nn::Embedding> funcEmb_;
  std::unique_ptr<nn::Lstm> inputLstm_;
  std::unique_ptr<nn::Lstm> outputLstm_;
  std::unique_ptr<nn::Lstm> traceLstm_;
  std::unique_ptr<nn::Lstm> stepLstm_;
  std::unique_ptr<nn::Linear> featProj_;  ///< example-level match features
  std::unique_ptr<nn::Linear> ioFeatProj_;  ///< IO property signature
  std::unique_ptr<nn::Lstm> combine1_;
  std::unique_ptr<nn::Lstm> combine2_;
  std::unique_ptr<nn::Lstm> exampleLstm_;
  std::unique_ptr<nn::Linear> fc1_;
  std::unique_ptr<nn::Linear> fc2_;
  mutable nn::InferenceScratch scratch_;  ///< fast-path buffers
  /// Training-pass arena, allocated by the first trainForward.
  std::unique_ptr<TrainTape, TrainTapeDeleter> train_;
  /// Trace-value encoding memo for the batched path, keyed by a 64-bit
  /// FNV-1a fingerprint of the value (GA populations re-produce the same
  /// intermediate values across genes and generations). The fingerprint
  /// replaces a per-lookup heap-allocated string key; a collision could only
  /// substitute one value's encoding for another's in the fitness signal,
  /// and at < 2^32 distinct trace values per run is negligible.
  ///
  /// Bounding is two-generation: when the current map reaches capacity it
  /// becomes the previous generation and a fresh map starts; lookups probe
  /// current then previous, promoting previous-generation hits. A working
  /// set sitting at the capacity boundary therefore keeps hitting (the old
  /// wholesale clear() thrashed it to a 0% hit rate every generation), live
  /// memory stays <= 2x capacity, and stale-but-cold entries still age out.
  mutable std::unordered_map<std::uint64_t, std::vector<float>> traceMemo_;
  mutable std::unordered_map<std::uint64_t, std::vector<float>>
      traceMemoPrev_;
  /// Edit-distance memo, keyed by mixed (trace value, output) fingerprints;
  /// same bounding and collision reasoning as traceMemo_.
  mutable std::unordered_map<std::uint64_t, std::size_t> editMemo_;
  mutable std::unordered_map<std::uint64_t, std::size_t> editMemoPrev_;
  std::size_t memoCapacity_ = 1u << 15;  ///< entries per generation map
  mutable MemoStats memoStats_;

  /// Spec preludes by mixed (fingerprint, m); cleared when it reaches
  /// kPreludeCapacity specs (a search works one spec at a time).
  static constexpr std::size_t kPreludeCapacity = 8;
  std::size_t preludeCapacity_ = kPreludeCapacity;
  mutable std::unordered_map<std::uint64_t, SpecPrelude> preludes_;
  /// stepLstm state after program steps 0..k of one (gene, example) row,
  /// keyed by the chained fingerprint of (output, f_0, t_0, ..., f_k, t_k):
  /// step row j is a pure function of f_j, the trace value t_j and the
  /// example output, so the key names every input of the state.
  mutable PrefixStateMemo stepMemo_{config_.hiddenDim};
  /// traceLstm state after the first k+1 tokens of a trace value, keyed by
  /// the chained fingerprint of those tokens. A trace-memo miss resumes
  /// from the longest stored prefix instead of from zero.
  mutable PrefixStateMemo tokenMemo_{config_.hiddenDim};
  // insertTraceMemo's work buffers (prefix keys, [h | c]), reused per miss.
  mutable std::vector<std::uint64_t> tokenKeys_;
  mutable std::vector<float> tokenState_;

  // Lane-capture state (beginLaneCapture): per-example output fingerprints
  // and full token spans, so encodeLaneTrace computes them once per spec
  // instead of once per candidate. The spec pointer detects capture context
  // switches; encodeLaneTrace refreshes lazily when it changes.
  mutable const dsl::Spec* laneCaptureSpec_ = nullptr;
  mutable std::vector<std::uint64_t> laneOutputFps_;
  mutable std::vector<std::vector<std::int32_t>> laneOutputToks_;
  mutable std::vector<std::size_t> laneTokenScratch_;
};

}  // namespace netsyn::fitness
