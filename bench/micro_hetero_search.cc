// Microbenchmark of the heterogeneous-fleet placement search (placement/hetero.h), the
// fig12 pattern applied to HeterogeneousPlacement: reduced search fidelity (the timing
// target is the algorithm, not the workload), the mixed demo fleet, one benchmark per
// objective. Tracked in BENCH_simcore.json and gated by
// tools/check_perf_regression.py like the fig12 planners.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "placement/hetero.h"

namespace distserve {
namespace {

placement::PlannerInputs Inputs(placement::PlannerObjective objective) {
  static const auto dataset = workload::MakeShareGptLike();
  const bench::Application app = bench::ChatbotOpt13B();
  placement::PlannerInputs inputs = bench::MakePlannerInputs(
      app, cluster::ClusterSpec::PaperTestbed(), dataset.get(), /*traffic_rate=*/4.0);
  inputs.objective = objective;
  // Fidelity reduced for timing runs, matching fig12_algo_runtime.
  inputs.search.num_requests = 100;
  inputs.search.min_trace_duration = 10.0;
  inputs.search.max_requests = 600;
  inputs.search.bisection_iters = 4;
  return inputs;
}

void BM_HeteroMaxGoodput(benchmark::State& state) {
  const placement::PlannerInputs inputs = Inputs(placement::PlannerObjective::kMaxGoodput);
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::HeterogeneousPlacement(inputs, fleet));
  }
  state.SetLabel("pools=3");
}

void BM_HeteroMinGpus(benchmark::State& state) {
  const placement::PlannerInputs inputs = Inputs(placement::PlannerObjective::kMinGpus);
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::HeterogeneousPlacement(inputs, fleet));
  }
  state.SetLabel("pools=3");
}

void BM_HeteroMinCost(benchmark::State& state) {
  const placement::PlannerInputs inputs = Inputs(placement::PlannerObjective::kMinCost);
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::HeterogeneousPlacement(inputs, fleet));
  }
  state.SetLabel("pools=3");
}

BENCHMARK(BM_HeteroMaxGoodput)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeteroMinGpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeteroMinCost)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace distserve

BENCHMARK_MAIN();
