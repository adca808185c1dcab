// Microbenchmarks of the chunked-prefill scheduling paths — the per-step cost of the
// SARATHI-style colocated engine (chunk admission, budget split between decodes and prompt
// chunks, window-offset pricing) and of its fast-simulator mirror, plus the scenario
// annotation passes and the priority/cancellation bookkeeping they switch on. These are the
// loops fig_scenarios spends its time in; the perf-gate CI job tracks them against
// BENCH_simcore.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cluster/gpu_spec.h"
#include "engine/colocated_instance.h"
#include "placement/fast_sim.h"
#include "simcore/simulator.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve {
namespace {

workload::Trace MakeTrace(double rate, int num_requests, uint64_t seed) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = num_requests;
  spec.seed = seed;
  return workload::GenerateTrace(spec, *dataset);
}

// The full multi-tenant scenario annotation: prefix hits shrink the chunk windows,
// priorities exercise the admission scan, cancels/deadlines exercise the teardown paths.
workload::Trace AnnotateScenario(workload::Trace trace, uint64_t seed) {
  workload::PrefixCacheSpec prefix;
  prefix.hit_rate = 0.5;
  prefix.seed = seed;
  workload::ApplyPrefixCache(&trace, prefix);
  workload::TenantSpec tenants;
  tenants.high_priority_fraction = 0.25;
  tenants.seed = seed;
  workload::ApplyTenantClasses(&trace, tenants);
  workload::CancellationSpec cancels;
  cancels.cancel_rate = 0.05;
  cancels.timeout = 30.0;
  cancels.seed = seed;
  workload::ApplyCancellations(&trace, cancels);
  return trace;
}

engine::ColocatedInstance::Options ChunkedOptions() {
  engine::ColocatedInstance::Options options;
  options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
  options.chunk_budget = 512;
  return options;
}

int64_t RunColocated(const model::LatencyModel& lm, const workload::Trace& trace,
                     const engine::ColocatedInstance::Options& options) {
  simcore::Simulator sim;
  engine::ColocatedInstance instance(&sim, lm, 1 << 20, options, 0);
  std::vector<std::unique_ptr<engine::RequestState>> states;
  states.reserve(trace.size());
  for (const workload::Request& req : trace) {
    states.push_back(std::make_unique<engine::RequestState>(req));
    engine::RequestState* rs = states.back().get();
    sim.ScheduleAt(req.arrival_time, [&instance, rs] { instance.Enqueue(rs); });
  }
  sim.Run();
  return instance.tokens_generated();
}

// The chunked engine on a plain single-tenant trace: every step splits the token budget
// between resident decodes and prompt chunks, so this is the densest view of the chunk
// admission + window-offset pricing loop.
void BM_ChunkedEngineSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace = MakeTrace(/*rate=*/8.0, /*num_requests=*/256, /*seed=*/13);
  const auto options = ChunkedOptions();
  int64_t tokens = 0;
  for (auto _ : state) {
    tokens = RunColocated(lm, trace, options);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_ChunkedEngineSteps);

// The chunked engine under the full scenario: prefix hits, a priority admission scan,
// preemption checks, and cancel/deadline teardowns layered on the same step loop. The gap
// to BM_ChunkedEngineSteps is what the scenario bookkeeping costs.
void BM_ChunkedScenarioSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace =
      AnnotateScenario(MakeTrace(/*rate=*/8.0, /*num_requests=*/256, /*seed=*/13), 13);
  const auto options = ChunkedOptions();
  int64_t tokens = 0;
  for (auto _ : state) {
    tokens = RunColocated(lm, trace, options);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_ChunkedScenarioSteps);

// The fast-simulator mirror of the chunked engine — the inner loop of every chunked goodput
// probe in fig_scenarios' search section.
void BM_FastSimChunked(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace = MakeTrace(/*rate=*/8.0, /*num_requests=*/2000, /*seed=*/17);
  placement::ColocatedFastConfig config;
  config.num_instances = 1;
  config.chunk_budget = 512;
  config.kv_capacity_tokens = 1 << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::SimulateColocated(lm, trace, config));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_FastSimChunked);

// The three scenario annotation passes over a 4096-request trace (no simulation): the fixed
// per-trace cost fig_scenarios pays before every cell.
void BM_ScenarioAnnotation(benchmark::State& state) {
  const workload::Trace trace = MakeTrace(/*rate=*/8.0, /*num_requests=*/4096, /*seed=*/29);
  for (auto _ : state) {
    workload::Trace annotated = AnnotateScenario(trace, 29);
    benchmark::DoNotOptimize(workload::ComputeScenarioStats(annotated));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_ScenarioAnnotation);

}  // namespace
}  // namespace distserve

BENCHMARK_MAIN();
