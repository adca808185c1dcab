// Appendix-A analytical latency model, generalised to mixed prefill+decode batches.
//
// The paper models prefill latency as C1*(4th^2 + 2thm) + C2*(3h*t2/b) + C3 (compute-bound
// GEMMs + memory-bound FlashAttention + overhead) and decode latency as C4*(4h^2 + 2hm) +
// C5*(3ht) (weight reads + KV reads). We unify both into a single roofline step model:
//
//   step = max(GEMM compute time for all tokens, GEMM weight-read time)   <- the roofline
//        + prefill attention time (memory- or compute-bound, whichever dominates)
//        + decode attention KV-read time
//        + tensor-parallel all-reduce time (2 collectives per layer)
//        + fixed per-step overhead
//
// Prefill-only and decode-only batches recover the paper's two formulas; a mixed batch (the
// colocated vLLM baseline) exhibits exactly the prefill-decoding interference of Figure 2,
// because one long prefill pushes the shared GEMMs from the weight-read regime into the
// (much slower) compute-bound regime for everyone in the batch.
//
// Tensor parallelism divides per-GPU GEMM/attention work by `tp` and adds all-reduce cost --
// this is what produces the imperfect speedup coefficient K of §3.1. Pipeline parallelism
// splits the L layers into `pp` stages; StageTime() is the slowest stage and FullTime() the
// end-to-end forward latency including inter-stage activation sends.
#ifndef DISTSERVE_MODEL_LATENCY_MODEL_H_
#define DISTSERVE_MODEL_LATENCY_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/gpu_spec.h"
#include "model/parallelism.h"

namespace distserve::model {

// Token-level description of one engine step (one forward pass of a batch).
struct BatchWorkload {
  // Prefill side: t = sum of new-token counts; t2 = sum of squared prompt lengths (the
  // quadratic attention term). A chunked prefill contributes its chunk length to
  // prefill_tokens but its full attention window to prefill_sq_tokens.
  int64_t prefill_tokens = 0;
  double prefill_sq_tokens = 0.0;

  // Decode side: B requests each contributing one new token; context_tokens = sum of their
  // current sequence lengths (the KV volume read this step).
  int64_t decode_requests = 0;
  int64_t decode_context_tokens = 0;

  int64_t total_new_tokens() const { return prefill_tokens + decode_requests; }
  bool empty() const { return total_new_tokens() == 0; }

  // A pure prefill batch over the given prompt lengths.
  static BatchWorkload Prefill(std::span<const int> input_lens);
  static BatchWorkload PrefillSingle(int input_len);
  // A pure decode step: `batch` requests with `context_tokens` total KV resident.
  static BatchWorkload Decode(int64_t batch, int64_t context_tokens);

  BatchWorkload& operator+=(const BatchWorkload& other);
};

// A structure-of-arrays lattice of BatchWorkload points for batched evaluation
// (LatencyModel::EvaluateBatch). Each scalar column is stored contiguously — and the derived
// double casts are materialised once at PushBack() time — so the evaluator's inner loop reads
// only dense double arrays and auto-vectorizes. Reusable: Clear() keeps capacity.
class BatchWorkloadLattice {
 public:
  void Reserve(size_t n);
  void Clear();
  void PushBack(const BatchWorkload& point);

  size_t size() const { return prefill_tokens_.size(); }
  bool empty() const { return prefill_tokens_.empty(); }
  BatchWorkload At(size_t i) const;

  // SoA columns (exact fields, for cache keying).
  std::span<const int64_t> prefill_tokens() const { return prefill_tokens_; }
  std::span<const double> prefill_sq_tokens() const { return prefill_sq_tokens_; }
  std::span<const int64_t> decode_requests() const { return decode_requests_; }
  std::span<const int64_t> decode_context_tokens() const { return decode_context_tokens_; }
  // Derived double columns (for the vectorized evaluator).
  std::span<const double> total_new_tokens_d() const { return total_new_d_; }
  std::span<const double> decode_context_tokens_d() const { return decode_context_d_; }

 private:
  std::vector<int64_t> prefill_tokens_;
  std::vector<double> prefill_sq_tokens_;
  std::vector<int64_t> decode_requests_;
  std::vector<int64_t> decode_context_tokens_;
  std::vector<double> total_new_d_;
  std::vector<double> decode_context_d_;
};

// The C1..C5 coefficients plus communication parameters, either derived from a GpuSpec or
// fitted from profiles (see calibration.h).
struct LatencyCoefficients {
  double c1 = 0.0;  // seconds per GEMM FLOP (compute-bound path)
  double c2 = 0.0;  // seconds per prefill-attention byte
  double c3 = 0.0;  // fixed seconds per stage step (kernel launch / runtime overhead)
  double c4 = 0.0;  // seconds per GEMM weight byte (memory-bound path)
  double c5 = 0.0;  // seconds per decode-attention byte
  int attention_block_size = 32;       // b in Appendix A (FlashAttention tile)
  double collective_byte_time = 0.0;   // seconds per byte moved by NVLink collectives
  double collective_latency = 8e-6;    // seconds per collective launch

  static LatencyCoefficients FromGpu(const cluster::GpuSpec& gpu);
};

class LatencyModel {
 public:
  LatencyModel(const ModelSpec& spec, const ParallelismConfig& par,
               const LatencyCoefficients& coeffs);

  // Convenience: derive coefficients directly from a GPU spec.
  LatencyModel(const ModelSpec& spec, const ParallelismConfig& par,
               const cluster::GpuSpec& gpu);

  const ModelSpec& spec() const { return view_.spec(); }
  const ParallelismConfig& par() const { return view_.par(); }
  const ShardedModelView& view() const { return view_; }
  const LatencyCoefficients& coeffs() const { return coeffs_; }

  // Time one GPU spends on a single transformer layer for this batch.
  double LayerTime(const BatchWorkload& batch) const;

  // Time of the slowest pipeline stage (ceil(L/pp) layers + per-step overhead). This is the
  // batch-to-batch cadence of a pipelined instance.
  double StageTime(const BatchWorkload& batch) const;

  // End-to-end forward latency: all pp stages in sequence plus inter-stage activation sends.
  double FullTime(const BatchWorkload& batch) const;

  // Batched evaluation: prices every point of `points` in one pass over the SoA columns.
  // Either output span may be empty (that metric is skipped); a non-empty span must have
  // exactly points.size() entries. Bit-identical to calling StageTime()/FullTime() per point:
  // the inner loop mirrors LayerTime()'s arithmetic expression-for-expression (only
  // batch-independent subexpressions are hoisted, which cannot change the FP result), so it
  // stays exact under auto-vectorization (elementwise IEEE ops, no fast-math).
  void EvaluateBatch(const BatchWorkloadLattice& points, std::span<double> stage_times,
                     std::span<double> full_times) const;

  // Shorthands used throughout the engine.
  double PrefillFullTime(std::span<const int> input_lens) const;
  double DecodeStepFullTime(int64_t batch, int64_t context_tokens) const;

  // The intra-op speedup coefficient K of §3.1: single-GPU full time / this config's full
  // time, for a single prompt of `input_len` tokens. Between 1 and tp for tp-way intra-op.
  double IntraOpSpeedup(int input_len) const;

  // Number of prompt tokens at which a prefill GEMM becomes compute-bound on this config
  // (the paper's L_m saturation threshold, §3.1/§4.3).
  int64_t ComputeSaturationTokens() const;

  // Scales the GEMM communication-free speedup to emulate a different K (Figure 4b's knob).
  // `scale` multiplies all collective costs; 0 = free communication (K -> tp).
  void ScaleCollectiveCost(double scale);

 private:
  ShardedModelView view_;
  LatencyCoefficients coeffs_;
};

}  // namespace distserve::model

#endif  // DISTSERVE_MODEL_LATENCY_MODEL_H_
