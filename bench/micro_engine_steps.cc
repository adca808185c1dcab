// Microbenchmarks of the engine step loops — the per-step cost of the DES instances
// (decode lanes, prefill batch launches, the colocated baseline) and of the fast placement
// simulator. These loops dominate every end-to-end figure run; the perf-smoke CI job
// tracks them.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cluster/gpu_spec.h"
#include "engine/colocated_instance.h"
#include "engine/decode_instance.h"
#include "engine/prefill_instance.h"
#include "placement/fast_sim.h"
#include "simcore/simulator.h"
#include "workload/dataset.h"
#include "workload/generator.h"

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

// Sustained continuous-batching decode: 256 requests with ShareGPT-like lengths, admitted
// and completing continuously. The per-step costs under test: batch formation (O(1) context
// accounting), one step-time evaluation, one event schedule/fire, survivor compaction.
void BM_DecodeEngineSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace = MakeTrace(/*rate=*/8.0, /*num_requests=*/1024, /*seed=*/7);
  engine::DecodeInstance::Options options;
  int64_t tokens = 0;
  for (auto _ : state) {
    simcore::Simulator sim;
    engine::DecodeInstance instance(&sim, lm, 1 << 20, options, 0);
    std::vector<std::unique_ptr<engine::RequestState>> states;
    states.reserve(trace.size());
    for (const workload::Request& req : trace) {
      if (req.output_len < 2) {
        continue;
      }
      states.push_back(std::make_unique<engine::RequestState>(req));
      instance.Submit(states.back().get());
    }
    sim.Run();
    tokens = instance.tokens_generated();
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
  state.counters["steps"] = static_cast<double>(tokens);
}
BENCHMARK(BM_DecodeEngineSteps);

// Steady-state decode lanes at a fixed small batch: 8 identical requests join at t=0 and
// step together for 2048 generated tokens each across pp=2 lanes. At this lane batch size
// the per-step overheads under test (event scheduling, batch re-formation, context
// accounting) are not drowned out by per-token bookkeeping, so this is the cleanest view of
// the step loop itself.
void BM_DecodeSteadyStateSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 2},
                               cluster::GpuSpec::A100_80GB());
  workload::FixedDataset dataset(/*input_len=*/256, /*output_len=*/2048);
  workload::TraceSpec spec;
  spec.rate = 1000.0;
  spec.num_requests = 8;
  spec.seed = 3;
  const workload::Trace trace = workload::GenerateTrace(spec, dataset);
  engine::DecodeInstance::Options options;
  int64_t tokens = 0;
  for (auto _ : state) {
    simcore::Simulator sim;
    engine::DecodeInstance instance(&sim, lm, 1 << 20, options, 0);
    std::vector<std::unique_ptr<engine::RequestState>> states;
    states.reserve(trace.size());
    for (const workload::Request& req : trace) {
      states.push_back(std::make_unique<engine::RequestState>(req));
      instance.Submit(states.back().get());
    }
    sim.Run();
    tokens = instance.tokens_generated();
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_DecodeSteadyStateSteps);

// Prefill batch launches through the L_m batching policy and the pipeline-bubble recurrence
// (pp=2 exercises the bubble path). KV is released as soon as a batch completes, as the
// serving layer does once the decode side pulls.
void BM_PrefillEngineBatches(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 2},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace = MakeTrace(/*rate=*/64.0, /*num_requests=*/512, /*seed=*/11);
  engine::PrefillInstance::Options options;
  int64_t batches = 0;
  for (auto _ : state) {
    simcore::Simulator sim;
    engine::PrefillInstance instance(&sim, lm, 1 << 20, options, 0);
    instance.set_on_complete(
        [&instance](engine::RequestState* r) { instance.ReleaseKv(r); });
    std::vector<std::unique_ptr<engine::RequestState>> states;
    states.reserve(trace.size());
    for (const workload::Request& req : trace) {
      states.push_back(std::make_unique<engine::RequestState>(req));
      engine::RequestState* rs = states.back().get();
      sim.ScheduleAt(req.arrival_time, [&instance, rs] { instance.Enqueue(rs); });
    }
    sim.Run();
    batches = instance.batches_launched();
    benchmark::DoNotOptimize(batches);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size()));
  state.counters["batches"] = static_cast<double>(batches);
}
BENCHMARK(BM_PrefillEngineBatches);

// The colocated (vLLM-style) baseline: mixed prefill+decode iterations with
// prefill-priority scheduling.
void BM_ColocatedEngineSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace = MakeTrace(/*rate=*/8.0, /*num_requests=*/256, /*seed=*/13);
  engine::ColocatedInstance::Options options;
  int64_t tokens = 0;
  for (auto _ : state) {
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
    tokens = instance.tokens_generated();
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_ColocatedEngineSteps);

// The fast placement simulator over a full disaggregated pipeline — the inner loop of every
// goodput probe in Algorithm 1/2.
void BM_FastSimDisaggregated(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace = MakeTrace(/*rate=*/12.0, /*num_requests=*/2000, /*seed=*/17);
  placement::DisaggregatedFastConfig config;
  config.num_prefill = 2;
  config.num_decode = 2;
  config.decode_kv_capacity_tokens = 1 << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::SimulateDisaggregated(lm, lm, trace, config));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_FastSimDisaggregated);

}  // namespace
}  // namespace distserve

BENCHMARK_MAIN();
