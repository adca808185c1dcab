// Microbenchmarks of the latency-model hot path.
//
// LatencyModel::FullTime is evaluated millions of times inside the placement search (every
// simulated engine step), so its cost bounds planner latency (Figure 12). These benchmarks
// keep it honest.
#include <benchmark/benchmark.h>

#include <vector>

#include "cluster/gpu_spec.h"
#include "model/calibration.h"
#include "model/latency_model.h"

namespace distserve::model {
namespace {

void BM_DecodeStepTime(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {static_cast<int>(state.range(0)), 1},
                        cluster::GpuSpec::A100_80GB());
  int64_t batch = 1;
  for (auto _ : state) {
    batch = batch % 256 + 1;
    benchmark::DoNotOptimize(lm.DecodeStepFullTime(batch, batch * 400));
  }
}
BENCHMARK(BM_DecodeStepTime)->Arg(1)->Arg(4);

void BM_PrefillBatchTime(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt66B(), {4, 2}, cluster::GpuSpec::A100_80GB());
  const std::vector<int> lens = {128, 256, 512, 128};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.PrefillFullTime(lens));
  }
}
BENCHMARK(BM_PrefillBatchTime);

void BM_MixedBatchTime(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  BatchWorkload workload = BatchWorkload::PrefillSingle(512);
  workload += BatchWorkload::Decode(64, 64 * 300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.FullTime(workload));
  }
}
BENCHMARK(BM_MixedBatchTime);

// Batched vs scalar lattice pricing (DESIGN.md §15). The tiered placement search prices whole
// batch lattices through EvaluateBatch; these two benchmarks pin its throughput edge over the
// per-point StageTime()/FullTime() loop it replaces (results are bit-identical — that is
// latency_model_test / tiered_search_test territory; here we only time it). The CI perf gate
// compares the pair.
BatchWorkloadLattice MakeBenchLattice(int n) {
  BatchWorkloadLattice lattice;
  lattice.Reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int batch = 1 + i % 128;
    BatchWorkload point = BatchWorkload::Decode(batch, static_cast<int64_t>(batch) * 300);
    if (i % 4 == 0) {
      point += BatchWorkload::PrefillSingle(64 + (i % 7) * 97);
    }
    lattice.PushBack(point);
  }
  return lattice;
}

void BM_LatticeScalar(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  const BatchWorkloadLattice lattice = MakeBenchLattice(static_cast<int>(state.range(0)));
  std::vector<double> stage(lattice.size());
  std::vector<double> full(lattice.size());
  for (auto _ : state) {
    for (size_t i = 0; i < lattice.size(); ++i) {
      const BatchWorkload point = lattice.At(i);
      stage[i] = lm.StageTime(point);
      full[i] = lm.FullTime(point);
    }
    benchmark::DoNotOptimize(stage.data());
    benchmark::DoNotOptimize(full.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lattice.size()));
}
BENCHMARK(BM_LatticeScalar)->Arg(64)->Arg(1024);

void BM_LatticeBatched(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  const BatchWorkloadLattice lattice = MakeBenchLattice(static_cast<int>(state.range(0)));
  std::vector<double> stage(lattice.size());
  std::vector<double> full(lattice.size());
  for (auto _ : state) {
    lm.EvaluateBatch(lattice, stage, full);
    benchmark::DoNotOptimize(stage.data());
    benchmark::DoNotOptimize(full.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lattice.size()));
}
BENCHMARK(BM_LatticeBatched)->Arg(64)->Arg(1024);

// Pricing one decode run (a fixed batch, its context growing by `batch` tokens per step) with
// a DecodeStepPricer, as the engines and the fast sim do, or with one EvaluateBatch call over
// a reused lattice, the general batched path. Both produce the same step times bit for bit
// (latency_model_test); runs in the serving benches average about two steps, so the per-run
// fixed cost dominates. Informational: no perf gate reads these.
constexpr int64_t kRunCtxPerRequest = 300;

void BM_DecodeRunPricer(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {2, 1}, cluster::GpuSpec::A100_80GB());
  const int steps = static_cast<int>(state.range(0));
  std::vector<double> times(static_cast<size_t>(steps));
  int64_t batch = 1;
  for (auto _ : state) {
    batch = batch % 128 + 1;
    const DecodeStepPricer pricer = lm.DecodePricer(batch);
    for (int i = 0; i < steps; ++i) {
      times[static_cast<size_t>(i)] = pricer.FullTime(batch * kRunCtxPerRequest + i * batch);
    }
    benchmark::DoNotOptimize(times.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_DecodeRunPricer)->Arg(2)->Arg(5)->Arg(32);

void BM_DecodeRunLattice(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {2, 1}, cluster::GpuSpec::A100_80GB());
  const int steps = static_cast<int>(state.range(0));
  std::vector<double> times(static_cast<size_t>(steps));
  BatchWorkloadLattice lattice;
  int64_t batch = 1;
  for (auto _ : state) {
    batch = batch % 128 + 1;
    lattice.Clear();
    for (int i = 0; i < steps; ++i) {
      lattice.PushBack(BatchWorkload::Decode(batch, batch * kRunCtxPerRequest + i * batch));
    }
    lm.EvaluateBatch(lattice, {}, times);
    benchmark::DoNotOptimize(times.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_DecodeRunLattice)->Arg(2)->Arg(5)->Arg(32);

void BM_CoefficientFit(benchmark::State& state) {
  const LatencyModel truth(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  Rng rng(1);
  const ProfileSweep sweep = GenerateProfile(truth, rng, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitCoefficients(ModelSpec::Opt13B(), {1, 1}, sweep,
                                             truth.coeffs()));
  }
}
BENCHMARK(BM_CoefficientFit);

}  // namespace
}  // namespace distserve::model

BENCHMARK_MAIN();
