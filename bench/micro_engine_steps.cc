// Microbenchmarks of the engine step loops — the cost of the DES instances (decode lanes,
// prefill batch launches, the colocated baseline) and of the fast placement simulator. These
// loops dominate every end-to-end figure run; the perf-smoke CI job tracks them. Each engine
// bench reports its engine steps (`steps`), generated tokens (`tokens`) and DES events fired
// (`events`): decode lanes and the colocated engine fire one event per membership-stable run
// of steps, so events < steps.
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

// What one engine run did: its steps, generated tokens and the DES events fired. Items
// processed are tokens.
struct EngineCounts {
  int64_t steps = 0;
  int64_t tokens = 0;
  int64_t events = 0;

  template <typename Instance>
  static EngineCounts Of(const Instance& instance, const simcore::Simulator& sim) {
    return {instance.steps_executed(), instance.tokens_generated(), sim.events_processed()};
  }

  void Report(benchmark::State& state) const {
    state.SetItemsProcessed(state.iterations() * tokens);
    state.counters["steps"] = static_cast<double>(steps);
    state.counters["tokens"] = static_cast<double>(tokens);
    state.counters["events"] = static_cast<double>(events);
  }
};

// Sustained continuous-batching decode: 256 requests with ShareGPT-like lengths, admitted
// and completing continuously. The costs under test: run formation (O(1) context
// accounting), batched pricing of the run's steps, one event schedule/fire per run, and
// completions off the finish-step heap.
void BM_DecodeEngineSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  const workload::Trace trace = MakeTrace(/*rate=*/8.0, /*num_requests=*/1024, /*seed=*/7);
  engine::DecodeInstance::Options options;
  EngineCounts counts;
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
    counts = EngineCounts::Of(instance, sim);
    benchmark::DoNotOptimize(counts);
  }
  counts.Report(state);
}
BENCHMARK(BM_DecodeEngineSteps);

// Steady-state decode lanes at a fixed small batch: 8 identical requests join at t=0 and
// step together for 2048 generated tokens each across pp=2 lanes. Membership never changes
// mid-stream, so every run is kDecodeStepChunk steps long: the cleanest view of the per-run
// overheads (pricing, event scheduling, counter commits) without joins cutting runs short.
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
  EngineCounts counts;
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
    counts = EngineCounts::Of(instance, sim);
    benchmark::DoNotOptimize(counts);
  }
  counts.Report(state);
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
  EngineCounts counts;
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
    counts = EngineCounts::Of(instance, sim);
    benchmark::DoNotOptimize(counts);
  }
  counts.Report(state);
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
