// Capacity planning for a document-summarization service (the paper's hardest workload).
//
// LongBench-style traffic: prompts around 3-4k tokens, short summaries, a loose TTFT SLO
// (15 s) but stringent TPOT (0.15 s). This example walks the full planning workflow a service
// operator would run:
//   1. characterise the workload (dataset statistics);
//   2. search placements with both algorithms and compare their GPU bills for a target rate;
//   3. validate the chosen plan against an engine-level replay at the target rate;
//   4. show what the same GPUs buy under the vLLM-style colocated baseline.
#include <cstdio>
#include <algorithm>

#include "baselines/vllm_system.h"
#include "core/distserve.h"

int main() {
  using namespace distserve;

  const auto dataset = workload::MakeLongBenchLike();
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const model::ModelSpec model = model::ModelSpec::Opt66B();
  const metrics::SloSpec slo{15.0, 0.15};
  const double target_rate = 3.0;  // requests/second the service must sustain

  // 1. Workload characterisation.
  const workload::LengthSample mean = dataset->MeanLengths(/*seed=*/1);
  const double kv_gb = static_cast<double>(mean.input_len) *
                       static_cast<double>(model.kv_bytes_per_token()) / 1e9;
  std::printf("Workload: %s | mean prompt %d tokens, mean summary %d tokens\n",
              dataset->name().c_str(), mean.input_len, mean.output_len);
  std::printf("Mean KV cache per request: %.2f GB -> %.1f s on the 25 Gbps cross-node link,\n",
              kv_gb, kv_gb * 8.0 / 25.0);
  std::printf("so placement must keep transfers on NVLink (Algorithm 2 territory).\n\n");

  // 2. Placement search.
  DistServeOptions options;
  options.model = model;
  options.cluster = cluster;
  options.slo = slo;
  options.traffic_rate = target_rate;
  options.dataset = dataset.get();
  options.search.num_requests = 300;
  options.search.min_trace_duration = 40.0;
  options.search.max_requests = 4000;
  options.search.bisection_iters = 7;

  DistServe server(options);
  const placement::PlacementPlan& plan = server.Plan();
  std::printf("Chosen placement (%s): %s\n",
              server.used_high_affinity() ? "Algorithm 1" : "Algorithm 2",
              plan.ToString().c_str());
  std::printf("GPU bill for %.1f req/s: %d GPUs (%.3f req/s/GPU)\n\n", target_rate,
              plan.total_gpus(), target_rate / plan.total_gpus());

  // 3. Engine-level validation at the target rate.
  const metrics::Collector results = server.ServeGenerated(target_rate, 1200, /*seed=*/7);
  const metrics::Attainment attainment = results.ComputeAttainment(slo);
  std::printf("Validation replay @ %.1f req/s: attainment both=%.1f%% (TTFT %.1f%%, TPOT %.1f%%)\n",
              target_rate, 100.0 * attainment.both, 100.0 * attainment.ttft_only,
              100.0 * attainment.tpot_only);
  std::printf("P90 TTFT %.2f s (SLO %.1f s) | P90 TPOT %.0f ms (SLO %.0f ms)\n",
              results.TtftPercentile(90), slo.ttft, 1e3 * results.TpotPercentile(90),
              1e3 * slo.tpot);
  std::printf("Lifecycle: %s\n\n", results.ComputeBreakdown().ToString().c_str());

  // 4. The colocated baseline on the same GPU budget.
  const int vllm_tp = 4;  // the paper's vLLM parallelism for OPT-66B
  const int vllm_instances = std::max(1, plan.total_gpus() / vllm_tp);
  baselines::VllmConfig vllm_config;
  vllm_config.model = model;
  vllm_config.cluster = cluster;
  vllm_config.par = {vllm_tp, 1};
  vllm_config.num_instances = vllm_instances;
  baselines::VllmSystem vllm(std::move(vllm_config));
  workload::TraceSpec spec;
  spec.rate = target_rate;
  spec.num_requests = 1200;
  spec.seed = 7;
  const metrics::Attainment vllm_attainment =
      vllm.Run(workload::GenerateTrace(spec, *dataset)).ComputeAttainment(slo);
  std::printf("vLLM baseline (tp=%d x %d = %d GPUs) at the same rate: both=%.1f%% "
              "(TTFT %.1f%%, TPOT %.1f%%)\n",
              vllm_tp, vllm_instances, vllm_tp * vllm_instances, 100.0 * vllm_attainment.both,
              100.0 * vllm_attainment.ttft_only, 100.0 * vllm_attainment.tpot_only);
  std::printf("Long prompts stall colocated decoding for over a second at a time; the gap\n"
              "between the systems opens at the saturation knee (sweep it with\n"
              "bench_fig9_code_summarization).\n");
  return 0;
}
