// Microbenchmarks of the DES core: event scheduling/firing throughput and an end-to-end
// engine-step rate. A full Figure-8 sweep executes tens of millions of events; the DES core
// must stay in the tens-of-nanoseconds-per-event range.
#include <benchmark/benchmark.h>

#include "cluster/gpu_spec.h"
#include "engine/decode_instance.h"
#include "simcore/simulator.h"
#include "workload/generator.h"

namespace distserve {
namespace {

void BM_ScheduleAndFire(benchmark::State& state) {
  for (auto _ : state) {
    simcore::Simulator sim;
    for (int i = 0; i < 1024; ++i) {
      sim.ScheduleAt(static_cast<double>((i * 7919) % 1000), [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ScheduleAndFire);

// One schedule+fire cycle while `range(0)` later events stand in the queue: every push and
// pop sifts through that many entries. 40000 is the depth a serve-chatbot trace left behind
// when its arrivals were all scheduled up front. Simulator::StreamArrivals keeps arrivals out
// of the heap, so the standing depth is in-flight work alone, which the /0 row approximates.
void BM_ScheduleAndFireWithBacklog(benchmark::State& state) {
  const int64_t backlog = state.range(0);
  simcore::Simulator sim;
  for (int64_t i = 0; i < backlog; ++i) {
    sim.ScheduleAt(1e9 + static_cast<double>(i), [] {});
  }
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-3;
    sim.ScheduleAt(t, [] {});
    benchmark::DoNotOptimize(sim.Run(t));  // fires the one event at t, none of the backlog
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleAndFireWithBacklog)->Arg(0)->Arg(40000);

// A trace streamed through Simulator::StreamArrivals: `range(0)` arrivals 1 ms apart, each
// scheduling one follow-up event 0.5 ms later, so at most one heap event stands beside the
// pending arrival. Items are fired events, arrivals and follow-ups alike.
void BM_StreamedArrivals(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    simcore::Simulator sim;
    sim.StreamArrivals(
        n, [](size_t i) { return 1e-3 * static_cast<double>(i); },
        [&sim](size_t) { sim.ScheduleAfter(5e-4, [] {}); });
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_StreamedArrivals)->Arg(4096);

void BM_CancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    simcore::Simulator sim;
    std::vector<simcore::EventHandle> handles;
    handles.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      handles.push_back(sim.ScheduleAt(static_cast<double>(i), [] {}));
    }
    for (size_t i = 0; i < handles.size(); i += 2) {
      handles[i].Cancel();
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CancelHeavy);

// The compaction stress case: a rolling window of speculative deadlines where almost every
// scheduled event is cancelled before it can fire (the pattern that motivated heap
// compaction — with lazy deletion alone the heap holds the whole history).
void BM_CancelChurn(benchmark::State& state) {
  constexpr int kWindow = 256;
  constexpr int kRounds = 4096;
  for (auto _ : state) {
    simcore::Simulator sim;
    std::vector<simcore::EventHandle> window;
    window.reserve(kWindow);
    for (int i = 0; i < kRounds; ++i) {
      if (window.size() == kWindow) {
        // Cancel the oldest deadline, as a request that completed in time would.
        window.front().Cancel();
        window.erase(window.begin());
      }
      window.push_back(sim.ScheduleAt(static_cast<double>(i) + 1000.0, [] {}));
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_CancelChurn);

// The engines' run cut (informational, not gated): a run's event is scheduled at the end of a
// multi-step run, then moved back in place to the end of the step in flight when the run's
// membership changes, while `range(0)` other runs' events stand in the queue.
void BM_RescheduleEarlier(benchmark::State& state) {
  const int64_t standing = state.range(0);
  simcore::Simulator sim;
  for (int64_t i = 0; i < standing; ++i) {
    sim.ScheduleAt(1e9 + static_cast<double>(i), [] {});
  }
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-3;
    const simcore::EventHandle run = sim.ScheduleAt(t + 8e-3, [] {});
    sim.Reschedule(run, t);
    benchmark::DoNotOptimize(sim.Run(t));  // fires the cut run, none of the standing ones
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RescheduleEarlier)->Arg(0)->Arg(64);

void BM_DecodeInstanceSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  for (auto _ : state) {
    simcore::Simulator sim;
    engine::DecodeInstance instance(&sim, lm, 1 << 20, {}, 0);
    std::vector<std::unique_ptr<engine::RequestState>> states;
    for (int i = 0; i < 64; ++i) {
      workload::Request req;
      req.id = i;
      req.input_len = 128;
      req.output_len = 32;
      states.push_back(std::make_unique<engine::RequestState>(req));
      instance.Submit(states.back().get());
    }
    sim.Run();
    benchmark::DoNotOptimize(instance.tokens_generated());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 31);
}
BENCHMARK(BM_DecodeInstanceSteps);

}  // namespace
}  // namespace distserve

BENCHMARK_MAIN();
