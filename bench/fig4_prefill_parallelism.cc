// Figure 4: parallelism preference of a prefill instance (OPT-66B on 2 A100s).
//
// (a) Average TTFT vs arrival rate for 2-way intra-op vs 2-way inter-op, measured on the DES
//     engine and overlaid with the closed-form Eq. 2 / Eq. 3 curves. The paper's shape:
//     intra-op wins at low rates (execution time dominates), inter-op overtakes as queueing
//     dominates.
// (b) The same comparison as the intra-op speedup coefficient K degrades (scaling the
//     collective cost): lower K shrinks intra-op's advantage and moves the crossover left.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "engine/prefill_instance.h"
#include "queueing/md1.h"

namespace distserve {
namespace {

constexpr int kInputLen = 512;
constexpr int kRequests = 4000;

// Mean TTFT of a prefill-only engine with the given latency model (batching disabled to match
// the M/D/1 setting of §3.1).
double EngineMeanTtft(const model::LatencyModel& lm, double rate, uint64_t seed) {
  simcore::Simulator sim;
  engine::PrefillInstance::Options options;
  options.batch_policy.max_batch_size = 1;
  options.batch_policy.target_tokens = 1;
  engine::PrefillInstance instance(&sim, lm, /*kv_capacity_tokens=*/1 << 26, options, 0);
  double sum = 0.0;
  int done = 0;
  instance.set_on_complete([&](engine::RequestState* r) {
    sum += r->record.first_token - r->record.arrival;
    ++done;
    instance.ReleaseKv(r);
  });
  workload::FixedDataset dataset(kInputLen, 2);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = kRequests;
  spec.seed = seed;
  const workload::Trace trace = workload::GenerateTrace(spec, dataset);
  std::vector<std::unique_ptr<engine::RequestState>> states;
  for (const workload::Request& req : trace) {
    states.push_back(std::make_unique<engine::RequestState>(req));
  }
  sim.StreamArrivals(
      states.size(), [&states](size_t i) { return states[i]->request.arrival_time; },
      [&instance, &states](size_t i) { instance.Enqueue(states[i].get()); });
  sim.Run();
  return sum / done;
}

}  // namespace

int Main() {
  const model::ModelSpec spec = model::ModelSpec::Opt66B();
  const cluster::GpuSpec gpu = cluster::ClusterSpec::PaperTestbed().gpu;
  const model::LatencyModel single(spec, {1, 1}, gpu);
  const model::LatencyModel intra(spec, {2, 1}, gpu);
  const model::LatencyModel inter(spec, {1, 2}, gpu);
  const double service = single.PrefillFullTime(std::vector<int>{kInputLen});
  const double k = intra.IntraOpSpeedup(kInputLen);

  bench::PrintBanner("Figure 4a: avg TTFT, intra-op vs inter-op on 2 GPUs (OPT-66B, 512-token)");
  std::printf("# single-GPU prefill D = %.0f ms, measured intra-op speedup K = %.2f\n",
              1e3 * service, k);
  std::printf("%-10s %12s %12s %12s %12s\n", "rate", "intra(DES)", "inter(DES)", "intra(Eq3)",
              "inter(Eq2)");
  for (double util : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7}) {
    const double rate = util / service;
    const double eq3 = queueing::IntraOp2AvgTtft(rate, service, k);
    const double eq2 = queueing::InterOp2AvgTtft(rate, service);
    const double des_intra =
        util < k * 0.97 ? EngineMeanTtft(intra, rate, 3) : -1.0;  // unstable beyond K/D
    const double des_inter = EngineMeanTtft(inter, rate, 3);
    auto fmt = [](double v) {
      if (v < 0) {
        std::printf(" %11s", "unstable");
      } else {
        std::printf(" %9.0fms", 1e3 * v);
      }
    };
    std::printf("%-10.2f", rate);
    fmt(des_intra);
    fmt(des_inter);
    fmt(eq3 < 1e6 ? eq3 : -1.0);
    fmt(eq2 < 1e6 ? eq2 : -1.0);
    std::printf("\n");
  }

  // With a slower interconnect the speedup K degrades and the crossover moves into the
  // stable range — the regime Figure 4a actually plots (the authors' testbed K < 2).
  model::LatencyModel degraded(spec, {2, 1}, gpu);
  degraded.ScaleCollectiveCost(16.0);
  const double k_low = degraded.IntraOpSpeedup(kInputLen);
  bench::PrintBanner("Figure 4a': same, with collective cost x16 (K = " +
                     std::to_string(k_low).substr(0, 4) + ")");
  std::printf("%-10s %12s %12s\n", "rate", "intra(DES)", "inter(DES)");
  for (double util : {0.3, 0.7, 1.1, 1.3, 1.5, 1.6}) {
    const double rate = util / service;
    const double des_intra =
        util < k_low * 0.97 ? EngineMeanTtft(degraded, rate, 5) : -1.0;
    const double des_inter = EngineMeanTtft(inter, rate, 5);
    if (des_intra < 0) {
      std::printf("%-10.2f %11s %9.0fms\n", rate, "unstable", 1e3 * des_inter);
    } else {
      std::printf("%-10.2f %9.0fms %9.0fms %s\n", rate, 1e3 * des_intra, 1e3 * des_inter,
                  des_intra > des_inter ? "<- inter-op wins" : "");
    }
  }

  bench::PrintBanner("Figure 4b: crossover rate vs intra-op speedup K (Eq. 2 vs Eq. 3)");
  std::printf("%-8s %16s %16s\n", "K", "crossover(rps)", "intra adv @0.5rho");
  for (double k_target : {1.2, 1.4, 1.6, 1.8, 1.95}) {
    const double crossover = queueing::InterIntraCrossoverRate(service, k_target);
    const double rho_half = 0.5 / service;
    const double advantage = queueing::InterOp2AvgTtft(rho_half, service) /
                             queueing::IntraOp2AvgTtft(rho_half, service, k_target);
    std::printf("%-8.2f %16.2f %15.2fx\n", k_target, crossover, advantage);
  }
  std::printf("# engine-level K knob: scaling collective cost 0x..8x gives K = ");
  for (double scale : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    model::LatencyModel scaled(spec, {2, 1}, gpu);
    scaled.ScaleCollectiveCost(scale);
    std::printf("%.2f ", scaled.IntraOpSpeedup(kInputLen));
  }
  std::printf("\n");
  return 0;
}

}  // namespace distserve

int main() { return distserve::Main(); }
