#include "model/latency_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace distserve::model {

void BatchWorkloadLattice::Reserve(size_t n) {
  prefill_tokens_.reserve(n);
  prefill_sq_tokens_.reserve(n);
  decode_requests_.reserve(n);
  decode_context_tokens_.reserve(n);
  total_new_d_.reserve(n);
  decode_context_d_.reserve(n);
}

void BatchWorkloadLattice::Clear() {
  prefill_tokens_.clear();
  prefill_sq_tokens_.clear();
  decode_requests_.clear();
  decode_context_tokens_.clear();
  total_new_d_.clear();
  decode_context_d_.clear();
}

void BatchWorkloadLattice::PushBack(const BatchWorkload& point) {
  prefill_tokens_.push_back(point.prefill_tokens);
  prefill_sq_tokens_.push_back(point.prefill_sq_tokens);
  decode_requests_.push_back(point.decode_requests);
  decode_context_tokens_.push_back(point.decode_context_tokens);
  total_new_d_.push_back(static_cast<double>(point.total_new_tokens()));
  decode_context_d_.push_back(static_cast<double>(point.decode_context_tokens));
}

BatchWorkload BatchWorkloadLattice::At(size_t i) const {
  DS_DCHECK(i < size());
  BatchWorkload point;
  point.prefill_tokens = prefill_tokens_[i];
  point.prefill_sq_tokens = prefill_sq_tokens_[i];
  point.decode_requests = decode_requests_[i];
  point.decode_context_tokens = decode_context_tokens_[i];
  return point;
}

BatchWorkload BatchWorkload::Prefill(std::span<const int> input_lens) {
  BatchWorkload batch;
  for (int len : input_lens) {
    DS_CHECK(len > 0);
    batch.prefill_tokens += len;
    batch.prefill_sq_tokens += static_cast<double>(len) * static_cast<double>(len);
  }
  return batch;
}

BatchWorkload BatchWorkload::PrefillSingle(int input_len) {
  return Prefill(std::span<const int>(&input_len, 1));
}

BatchWorkload BatchWorkload::Decode(int64_t batch, int64_t context_tokens) {
  BatchWorkload workload;
  workload.decode_requests = batch;
  workload.decode_context_tokens = context_tokens;
  return workload;
}

BatchWorkload& BatchWorkload::operator+=(const BatchWorkload& other) {
  prefill_tokens += other.prefill_tokens;
  prefill_sq_tokens += other.prefill_sq_tokens;
  decode_requests += other.decode_requests;
  decode_context_tokens += other.decode_context_tokens;
  return *this;
}

LatencyCoefficients LatencyCoefficients::FromGpu(const cluster::GpuSpec& gpu) {
  LatencyCoefficients coeffs;
  coeffs.c1 = 1.0 / gpu.effective_flops();
  coeffs.c2 = 1.0 / gpu.effective_bandwidth();
  coeffs.c3 = 150e-6;  // per-step runtime overhead (scheduler, kernel launches).
  coeffs.c4 = 1.0 / gpu.effective_bandwidth();
  coeffs.c5 = 1.0 / gpu.effective_bandwidth();
  coeffs.attention_block_size = 32;
  // Collectives rarely reach peak NVLink; 70% is typical for NCCL ring all-reduce.
  coeffs.collective_byte_time = 1.0 / (gpu.nvlink_bandwidth * 0.7);
  coeffs.collective_latency = gpu.allreduce_latency;
  return coeffs;
}

LatencyModel::LatencyModel(const ModelSpec& spec, const ParallelismConfig& par,
                           const LatencyCoefficients& coeffs)
    : view_(spec, par), coeffs_(coeffs), terms_(MakeStepTerms(view_, coeffs_)) {}

LatencyModel::LatencyModel(const ModelSpec& spec, const ParallelismConfig& par,
                           const cluster::GpuSpec& gpu)
    : LatencyModel(spec, par, LatencyCoefficients::FromGpu(gpu)) {}

double LatencyModel::LayerTime(const BatchWorkload& batch) const {
  if (batch.empty()) {
    return 0.0;
  }
  const ModelSpec& spec = view_.spec();
  const double h = spec.hidden_size;
  const double m = spec.ffn_size;
  const double tp = view_.par().tp;
  const double dtype = spec.dtype_bytes;
  const double t_new = static_cast<double>(batch.total_new_tokens());

  // --- Shared GEMMs (QKV, attn-out, FFN in/out): roofline of compute vs weight reads. ---
  // MACs per GPU per layer = t * (4h^2 + 2hm) / tp; FLOPs = 2 * MACs.
  const double gemm_flops = 2.0 * t_new * (4.0 * h * h + 2.0 * h * m) / tp;
  const double compute_time = coeffs_.c1 * gemm_flops;
  // Weight bytes read per GPU per layer.
  const double weight_bytes = (4.0 * h * h + 2.0 * h * m) * dtype / tp;
  const double weight_read_time = coeffs_.c4 * weight_bytes;
  const double gemm_time = std::max(compute_time, weight_read_time);

  // --- Prefill attention (FlashAttention): 3*h*t2/b bytes of traffic, 2*h*t2 FLOPs. ---
  double prefill_attn_time = 0.0;
  if (batch.prefill_sq_tokens > 0.0) {
    const double attn_bytes =
        3.0 * h * batch.prefill_sq_tokens / static_cast<double>(coeffs_.attention_block_size) *
        dtype / tp;
    const double attn_flops = 2.0 * h * batch.prefill_sq_tokens / tp;
    prefill_attn_time = std::max(coeffs_.c2 * attn_bytes, coeffs_.c1 * attn_flops);
  }

  // --- Decode attention: reads 3*h*ctx bytes of KV; always memory-bound (AI ~ 1). ---
  double decode_attn_time = 0.0;
  if (batch.decode_context_tokens > 0) {
    const double kv_bytes =
        3.0 * h * static_cast<double>(batch.decode_context_tokens) * dtype / tp;
    decode_attn_time = coeffs_.c5 * kv_bytes;
  }

  // --- Tensor-parallel all-reduce: 2 collectives per layer over t*h activations. ---
  double collective_time = 0.0;
  if (view_.par().tp > 1) {
    const double bytes = t_new * h * dtype;
    const double ring_factor = 2.0 * (tp - 1.0) / tp;  // ring all-reduce traffic multiplier.
    collective_time =
        2.0 * (ring_factor * bytes * coeffs_.collective_byte_time + coeffs_.collective_latency);
  }

  return gemm_time + prefill_attn_time + decode_attn_time + collective_time;
}

double LatencyModel::StageTime(const BatchWorkload& batch) const {
  if (batch.empty()) {
    return 0.0;
  }
  return static_cast<double>(view_.layers_per_stage()) * LayerTime(batch) + coeffs_.c3;
}

double LatencyModel::FullTime(const BatchWorkload& batch) const {
  if (batch.empty()) {
    return 0.0;
  }
  const int pp = view_.par().pp;
  double time = static_cast<double>(pp) * StageTime(batch);
  if (pp > 1) {
    // Inter-stage activation sends: t*h*dtype bytes per boundary over NVLink/NIC. Modelled at
    // collective byte cost; the paper calls this negligible and it is (< 0.1% of stage time).
    const double bytes = static_cast<double>(batch.total_new_tokens()) *
                         static_cast<double>(view_.spec().hidden_size) *
                         static_cast<double>(view_.spec().dtype_bytes);
    time += static_cast<double>(pp - 1) *
            (bytes * coeffs_.collective_byte_time + coeffs_.collective_latency);
  }
  return time;
}

StepTerms LatencyModel::MakeStepTerms(const ShardedModelView& view,
                                      const LatencyCoefficients& coeffs) {
  const ModelSpec& spec = view.spec();
  StepTerms k;
  k.h = spec.hidden_size;
  k.dtype = spec.dtype_bytes;
  k.tp = view.par().tp;
  const double m = spec.ffn_size;
  k.gemm_weight = 4.0 * k.h * k.h + 2.0 * k.h * m;
  k.weight_read_time = coeffs.c4 * (k.gemm_weight * k.dtype / k.tp);
  k.h3 = 3.0 * k.h;
  k.h2 = 2.0 * k.h;
  k.block = static_cast<double>(coeffs.attention_block_size);
  k.ring_factor = 2.0 * (k.tp - 1.0) / k.tp;
  k.cbt = coeffs.collective_byte_time;
  k.clat = coeffs.collective_latency;
  k.layers = static_cast<double>(view.layers_per_stage());
  k.c1 = coeffs.c1;
  k.c2 = coeffs.c2;
  k.c3 = coeffs.c3;
  k.c5 = coeffs.c5;
  const int pp = view.par().pp;
  k.pp_d = static_cast<double>(pp);
  k.pp_m1 = static_cast<double>(pp - 1);
  k.has_tp = view.par().tp > 1;
  k.has_pp_tail = pp > 1;
  return k;
}

void LatencyModel::EvaluateBatch(const BatchWorkloadLattice& points,
                                 std::span<double> stage_times,
                                 std::span<double> full_times) const {
  const size_t n = points.size();
  DS_CHECK(stage_times.empty() || stage_times.size() == n);
  DS_CHECK(full_times.empty() || full_times.size() == n);
  if (n == 0) {
    return;
  }

  // A local copy: the output spans cannot alias it, so the loop vectorizes.
  const StepTerms k = terms_;
  const double* t_new = points.total_new_tokens_d().data();
  const double* sq = points.prefill_sq_tokens().data();
  const double* ctx = points.decode_context_tokens_d().data();
  double* stage_out = stage_times.empty() ? nullptr : stage_times.data();
  double* full_out = full_times.empty() ? nullptr : full_times.data();

  for (size_t i = 0; i < n; ++i) {
    const double t = t_new[i];
    const double layer =
        k.Gemm(t) + k.PrefillAttn(sq[i]) + k.DecodeAttn(ctx[i]) + k.Collective(t);
    const double stage = k.Stage(layer);
    const double full = k.Full(stage, k.PpTail(t));
    // Empty batches short-circuit to 0.0 in the scalar API; a branchless select keeps the
    // loop vectorizable.
    if (stage_out != nullptr) {
      stage_out[i] = (t == 0.0) ? 0.0 : stage;
    }
    if (full_out != nullptr) {
      full_out[i] = (t == 0.0) ? 0.0 : full;
    }
  }
}

double LatencyModel::PrefillFullTime(std::span<const int> input_lens) const {
  return FullTime(BatchWorkload::Prefill(input_lens));
}

double LatencyModel::DecodeStepFullTime(int64_t batch, int64_t context_tokens) const {
  return FullTime(BatchWorkload::Decode(batch, context_tokens));
}

double LatencyModel::IntraOpSpeedup(int input_len) const {
  const LatencyModel single(view_.spec(), ParallelismConfig{1, 1}, coeffs_);
  const BatchWorkload batch = BatchWorkload::PrefillSingle(input_len);
  const double mine = FullTime(batch);
  if (mine <= 0.0) {
    return 1.0;
  }
  return single.FullTime(batch) / mine;
}

int64_t LatencyModel::ComputeSaturationTokens() const {
  // Token count t* where GEMM compute time equals weight-read time:
  //   c1 * 2 * t * W_macs / tp = c4 * W_macs * dtype / tp  =>  t* = c4 * dtype / (2 c1).
  const double t_star =
      coeffs_.c4 * static_cast<double>(view_.spec().dtype_bytes) / (2.0 * coeffs_.c1);
  return std::max<int64_t>(1, static_cast<int64_t>(std::ceil(t_star)));
}

void LatencyModel::ScaleCollectiveCost(double scale) {
  DS_CHECK_GE(scale, 0.0);
  coeffs_.collective_byte_time *= scale;
  coeffs_.collective_latency *= scale;
  terms_ = MakeStepTerms(view_, coeffs_);
}

}  // namespace distserve::model
