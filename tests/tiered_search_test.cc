// Tiered-fidelity search equivalence suite (DESIGN.md §15).
//
// Three layers of bit-identity back the analytic tier's "skips, never verdict changes"
// contract, and each gets its own tests here:
//   1. LatencyModel::EvaluateBatch == scalar StageTime/FullTime, bit for bit, including
//      denormal / huge / empty boundary points and duplicates inside one lattice;
//   2. the run-batched decode probe loop == a per-step scalar reference loop kept here;
//   3. the planner's chosen plan with use_analytic_tier on == off, across algorithms,
//      seeds, traffic rates, and a degraded-cluster replan — while tier-on runs strictly
//      fewer (or equal) simulations.
// Plus the closed-form M/D/1 inverse and the cap-sanitization rules the tier is built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/gpu_spec.h"
#include "placement/algorithms.h"
#include "placement/analytic_tier.h"
#include "placement/fast_sim.h"
#include "queueing/md1.h"
#include "workload/generator.h"

namespace distserve::placement {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

model::LatencyModel Lm13B(int tp = 1, int pp = 1) {
  return model::LatencyModel(model::ModelSpec::Opt13B(), {tp, pp},
                             cluster::GpuSpec::A100_80GB());
}

// Boundary-heavy workload points: empty, denormal quadratic terms, huge contexts, pure
// prefill / pure decode / mixed, and a zero-sq prefill chunk.
std::vector<model::BatchWorkload> BoundaryPoints() {
  std::vector<model::BatchWorkload> points;
  points.push_back({});                                        // empty -> exactly 0.0
  points.push_back({0, 5e-324, 0, 0});                         // empty by tokens, denormal sq
  points.push_back(model::BatchWorkload::PrefillSingle(1));    // minimal prefill
  points.push_back({1, 5e-324, 0, 0});                         // denormal attention term
  points.push_back({3, 0.0, 0, 0});                            // chunk with sq folded elsewhere
  points.push_back({int64_t{1} << 20, 1e300, 0, 0});           // huge prefill
  points.push_back(model::BatchWorkload::Decode(1, 1));        // minimal decode
  points.push_back(model::BatchWorkload::Decode(512, int64_t{1} << 40));  // huge KV
  points.push_back({512, 512.0 * 512.0, 256, int64_t{1} << 20});          // mixed batch
  for (int b = 1; b <= 64; b *= 2) {                           // the analytic prefill lattice
    points.push_back(model::BatchWorkload::PrefillSingle(b * 257));
  }
  return points;
}

model::BatchWorkloadLattice MakeLattice(const std::vector<model::BatchWorkload>& points) {
  model::BatchWorkloadLattice lattice;
  lattice.Reserve(points.size());
  for (const auto& p : points) lattice.PushBack(p);
  return lattice;
}

TEST(BatchedEvalTest, MatchesScalarBitForBitAcrossParallelisms) {
  const std::vector<model::BatchWorkload> boundary = BoundaryPoints();
  // Duplicates inside one lattice are priced independently, each model-exact.
  std::vector<model::BatchWorkload> points = boundary;
  points.insert(points.end(), boundary.begin(), boundary.begin() + 5);
  const model::BatchWorkloadLattice lattice = MakeLattice(points);
  for (int tp : {1, 4}) {
    for (int pp : {1, 4}) {
      const model::LatencyModel lm = Lm13B(tp, pp);
      std::vector<double> stage(points.size()), full(points.size());
      lm.EvaluateBatch(lattice, stage, full);
      for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(stage[i], lm.StageTime(points[i])) << "tp=" << tp << " pp=" << pp << " i=" << i;
        EXPECT_EQ(full[i], lm.FullTime(points[i])) << "tp=" << tp << " pp=" << pp << " i=" << i;
      }
    }
  }
}

TEST(BatchedEvalTest, SingleMetricSpansAndEmptyLattice) {
  const std::vector<model::BatchWorkload> points = BoundaryPoints();
  const model::BatchWorkloadLattice lattice = MakeLattice(points);
  const model::LatencyModel lm = Lm13B(2, 2);
  std::vector<double> stage(points.size()), full(points.size());
  lm.EvaluateBatch(lattice, stage, {});  // stage only
  lm.EvaluateBatch(lattice, {}, full);   // full only
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(stage[i], lm.StageTime(points[i]));
    EXPECT_EQ(full[i], lm.FullTime(points[i]));
  }
  lm.EvaluateBatch(model::BatchWorkloadLattice(), {}, {});  // no-op
  // Round-trip: the lattice stores the exact fields.
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(lattice.At(i).prefill_sq_tokens, points[i].prefill_sq_tokens);
  }
}

TEST(Md1InverseTest, RoundTripsThroughAvgQueueingDelay) {
  for (double service : {0.005, 0.05, 0.7}) {
    for (double wait : {1e-4, 0.01, 1.0, 50.0}) {
      const double rate = queueing::Md1MaxRateForQueueingDelay(service, wait);
      ASSERT_GT(rate, 0.0);
      ASSERT_LT(rate, 1.0 / service);  // always strictly inside the stability region
      EXPECT_NEAR(queueing::Md1AvgQueueingDelay(rate, service), wait, wait * 1e-9);
    }
  }
}

TEST(Md1InverseTest, Edges) {
  EXPECT_EQ(queueing::Md1MaxRateForQueueingDelay(0.1, 0.0), 0.0);
  EXPECT_EQ(queueing::Md1MaxRateForQueueingDelay(0.1, -1.0), 0.0);
  EXPECT_EQ(queueing::Md1MaxRateForQueueingDelay(0.1, kNaN), 0.0);
  EXPECT_DOUBLE_EQ(queueing::Md1MaxRateForQueueingDelay(0.1, kInf), 10.0);
  // Monotone in the wait budget.
  EXPECT_LT(queueing::Md1MaxRateForQueueingDelay(0.1, 0.01),
            queueing::Md1MaxRateForQueueingDelay(0.1, 0.1));
}

TEST(AnalyticTierTest, CapSanitization) {
  // No-information estimates degenerate to the roofline alone.
  EXPECT_EQ(SanitizedAnalyticCap(0.0, 2.0, 5.0), 5.0);
  EXPECT_EQ(SanitizedAnalyticCap(-1.0, 2.0, 5.0), 5.0);
  EXPECT_EQ(SanitizedAnalyticCap(kNaN, 2.0, 5.0), 5.0);
  EXPECT_EQ(SanitizedAnalyticCap(kInf, 2.0, 5.0), 5.0);
  // Margin-scaled estimate, clamped to the roofline.
  EXPECT_EQ(SanitizedAnalyticCap(1.0, 2.0, 5.0), 2.0);
  EXPECT_EQ(SanitizedAnalyticCap(4.0, 2.0, 5.0), 5.0);
  // Overflowing margin * estimate is treated as no-information, not as infinity.
  EXPECT_EQ(SanitizedAnalyticCap(1e308, 1e300, 5.0), 5.0);
}

TEST(AnalyticTierTest, EstimatesBehaveStructurally) {
  const workload::LengthSample mean{512, 128};
  const model::LatencyModel tp1 = Lm13B(1, 1);
  const model::LatencyModel tp4 = Lm13B(4, 1);
  // Feasible SLOs give positive rates; more compute sustains more rate.
  const double p1 = AnalyticMaxPrefillRate(tp1, 0.5, mean, 64);
  const double p4 = AnalyticMaxPrefillRate(tp4, 0.5, mean, 64);
  EXPECT_GT(p1, 0.0);
  EXPECT_GT(p4, p1);
  // An SLO below the bare forward latency has no operating point.
  EXPECT_EQ(AnalyticMaxPrefillRate(tp1, 1e-6, mean, 64), 0.0);

  const double d1 = AnalyticMaxDecodeRate(tp1, 0.1, mean, int64_t{1} << 24, 512);
  EXPECT_GT(d1, 0.0);
  // Decode rate dwarfs prefill rate (§2.3), which is why the tier prunes mostly prefill.
  EXPECT_GT(d1, p1);
  // No KV room for even one request -> no operating point.
  EXPECT_EQ(AnalyticMaxDecodeRate(tp1, 0.1, mean, 100, 512), 0.0);
  // An impossible TPOT SLO -> no operating point.
  EXPECT_EQ(AnalyticMaxDecodeRate(tp1, 1e-9, mean, int64_t{1} << 24, 512), 0.0);
}

// --- Decode probe-loop equivalence -------------------------------------------------------

workload::Trace VariedTrace(double rate, int n, uint64_t seed) {
  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, *dataset);
}

// Per-step scalar reference for SimulateDecodeTpots: the same FCFS admission against token
// reservations, but one FullTime call per decode step at the micro-batch lane cadence. The
// run-batched production loop must reproduce it bit for bit.
std::vector<double> ScalarDecodeTpots(const model::LatencyModel& lm, int64_t kv_capacity_tokens,
                                      const workload::Trace& trace,
                                      const std::vector<double>& ready_times,
                                      int max_batch_size) {
  std::vector<double> tpot(trace.size(), 0.0);
  std::vector<size_t> order;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].output_len < 2) {
      continue;
    }
    if (trace[i].total_len() > kv_capacity_tokens) {
      tpot[i] = kInf;
      continue;
    }
    order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ready_times[a] < ready_times[b];
  });

  struct Active {
    size_t idx;
    int remaining;
    int64_t ctx;
    double join;
  };
  std::vector<Active> active;
  const int pp = lm.par().pp;
  size_t next = 0;
  double now = 0.0;
  int64_t used_tokens = 0;
  int64_t ctx_sum = 0;
  while (next < order.size() || !active.empty()) {
    if (active.empty()) {
      now = std::max(now, ready_times[order[next]]);
    }
    while (next < order.size() && ready_times[order[next]] <= now &&
           static_cast<int>(active.size()) < max_batch_size) {
      const size_t idx = order[next];
      const int64_t need = trace[idx].total_len();
      if (used_tokens + need > kv_capacity_tokens) {
        break;
      }
      used_tokens += need;
      const int64_t ctx = static_cast<int64_t>(trace[idx].input_len) + 1;
      active.push_back(Active{idx, trace[idx].output_len - 1, ctx, ready_times[idx]});
      ctx_sum += ctx;
      ++next;
    }
    if (active.empty()) {
      continue;
    }
    const int64_t lane_batch = (static_cast<int64_t>(active.size()) + pp - 1) / pp;
    const int64_t lane_ctx = ctx_sum / pp;
    now += lm.FullTime(model::BatchWorkload::Decode(lane_batch, std::max<int64_t>(lane_ctx, 1)));
    size_t write = 0;
    for (Active& a : active) {
      --a.remaining;
      ++a.ctx;
      ++ctx_sum;
      if (a.remaining <= 0) {
        ctx_sum -= a.ctx;
        tpot[a.idx] = (now - a.join) / static_cast<double>(trace[a.idx].output_len - 1);
        used_tokens -= trace[a.idx].total_len();
      } else {
        active[write++] = a;
      }
    }
    active.resize(write);
  }
  return tpot;
}

TEST(DecodeBatchedStepsTest, BitIdenticalToScalarLoop) {
  for (int pp : {1, 2}) {
    const model::LatencyModel lm = Lm13B(1, pp);
    for (double rate : {0.5, 4.0}) {
      const workload::Trace trace = VariedTrace(rate, 120, 7 + pp);
      std::vector<double> ready;
      ready.reserve(trace.size());
      for (const auto& r : trace) ready.push_back(r.arrival_time);
      for (int max_batch : {8, 256}) {
        const std::vector<double> scalar =
            ScalarDecodeTpots(lm, int64_t{1} << 20, trace, ready, max_batch);
        const std::vector<double> batched =
            SimulateDecodeTpots(lm, int64_t{1} << 20, trace, ready, max_batch);
        ASSERT_EQ(scalar.size(), batched.size());
        for (size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(scalar[i], batched[i]) << "pp=" << pp << " rate=" << rate << " i=" << i;
        }
      }
    }
  }
  // KV pressure path: tiny capacity forces queued admissions at completion boundaries; at
  // 1024 tokens some requests can never fit and score an infinite TPOT on both paths.
  const model::LatencyModel lm = Lm13B();
  const workload::Trace trace = VariedTrace(2.0, 60, 11);
  std::vector<double> ready;
  for (const auto& r : trace) ready.push_back(r.arrival_time);
  for (int64_t kv_capacity : {4096, 1024}) {
    const std::vector<double> scalar = ScalarDecodeTpots(lm, kv_capacity, trace, ready, 256);
    const std::vector<double> batched = SimulateDecodeTpots(lm, kv_capacity, trace, ready, 256);
    ASSERT_EQ(scalar.size(), batched.size());
    for (size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(scalar[i], batched[i]) << "kv=" << kv_capacity << " i=" << i;
    }
    if (kv_capacity == 1024) {
      EXPECT_NE(std::find(batched.begin(), batched.end(), kInf), batched.end());
    }
  }
}

// --- Planner bit-identity: tier on vs tier off -------------------------------------------

PlannerInputs FastInputs(const workload::Dataset* dataset, uint64_t seed, double traffic) {
  PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset;
  inputs.slo = {0.2, 0.1};
  inputs.traffic_rate = traffic;
  inputs.max_nodes_per_instance = 2;
  inputs.search.num_requests = 150;
  inputs.search.min_trace_duration = 20.0;
  inputs.search.max_requests = 1500;
  inputs.search.bisection_iters = 5;
  inputs.search.seed = seed;
  return inputs;
}

void ExpectPlansIdentical(const PlannerResult& on, const PlannerResult& off) {
  EXPECT_EQ(on.plan.prefill_par.tp, off.plan.prefill_par.tp);
  EXPECT_EQ(on.plan.prefill_par.pp, off.plan.prefill_par.pp);
  EXPECT_EQ(on.plan.decode_par.tp, off.plan.decode_par.tp);
  EXPECT_EQ(on.plan.decode_par.pp, off.plan.decode_par.pp);
  EXPECT_EQ(on.plan.num_prefill, off.plan.num_prefill);
  EXPECT_EQ(on.plan.num_decode, off.plan.num_decode);
  EXPECT_EQ(on.plan.intra_node_transfers, off.plan.intra_node_transfers);
  // Bitwise, not approximate: the tier may only skip simulations, never change one.
  EXPECT_EQ(on.plan.prefill_goodput, off.plan.prefill_goodput);
  EXPECT_EQ(on.plan.decode_goodput, off.plan.decode_goodput);
}

void ExpectAccountingInvariants(const PlannerResult& r) {
  EXPECT_EQ(r.configs_evaluated, r.simulations_run + r.simulations_skipped);
  EXPECT_EQ(r.simulations_skipped, r.roofline_pruned + r.analytic_rejected + r.pair_unneeded);
  EXPECT_GE(r.probes, 0);
  EXPECT_GE(r.trace_cache_hits, 0);
}

TEST(TieredSearchTest, HighAffinityPlanBitIdenticalTierOnOff) {
  const auto dataset = workload::MakeShareGptLike();
  int64_t probes_on = 0;
  int64_t probes_off = 0;
  for (uint64_t seed : {uint64_t{1234}, uint64_t{99}}) {
    for (double traffic : {10.0, 30.0}) {
      PlannerInputs inputs = FastInputs(dataset.get(), seed, traffic);
      inputs.use_analytic_tier = true;
      const PlannerResult on = HighNodeAffinityPlacement(inputs);
      inputs.use_analytic_tier = false;
      const PlannerResult off = HighNodeAffinityPlacement(inputs);
      ExpectPlansIdentical(on, off);
      ExpectAccountingInvariants(on);
      ExpectAccountingInvariants(off);
      // Tier-off never attributes skips to the analytic cap.
      EXPECT_EQ(off.analytic_rejected, 0);
      // The tier can only remove work.
      EXPECT_LE(on.simulations_run, off.simulations_run);
      EXPECT_LE(on.probes, off.probes);
      EXPECT_EQ(on.configs_evaluated, off.configs_evaluated);
      probes_on += on.probes;
      probes_off += off.probes;
    }
  }
  // The point of the tier: identical plans for strictly less tier-2 work somewhere in the
  // battery (for Algorithm 1 the savings come from the cap-out probe short-circuit; config
  // rejection beyond the roofline is structurally rare at a sound margin — see algorithms.h).
  EXPECT_LT(probes_on, probes_off);
}

TEST(TieredSearchTest, LowAffinityPlanBitIdenticalTierOnOff) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get(), 1234, 10.0);
  inputs.use_analytic_tier = true;
  const PlannerResult on = LowNodeAffinityPlacement(inputs);
  inputs.use_analytic_tier = false;
  const PlannerResult off = LowNodeAffinityPlacement(inputs);
  ExpectPlansIdentical(on, off);
  ExpectAccountingInvariants(on);
  ExpectAccountingInvariants(off);
  EXPECT_EQ(on.pairs_considered, off.pairs_considered);
  EXPECT_EQ(off.pairs_pruned_analytic, 0);
  EXPECT_GE(on.pairs_pruned_analytic + on.pairs_pruned_roofline, off.pairs_pruned_roofline);
  EXPECT_LE(on.simulations_run, off.simulations_run);
  // Algorithm 2 is where the analytic bound genuinely rejects candidates the roofline
  // cannot: the pair bound is the min over both phases, so one SLO-crippled phase sinks
  // the pair.
  EXPECT_GT(on.pairs_pruned_analytic, 0);
  EXPECT_LT(on.probes, off.probes);
}

TEST(TieredSearchTest, DegradedClusterReplanBitIdenticalTierOnOff) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get(), 1234, 10.0);
  inputs.cluster = inputs.cluster.Degraded(/*failed_gpus=*/9);
  inputs.use_analytic_tier = true;
  const PlannerResult on = HighNodeAffinityPlacement(inputs);
  inputs.use_analytic_tier = false;
  const PlannerResult off = HighNodeAffinityPlacement(inputs);
  ExpectPlansIdentical(on, off);
}

TEST(TieredSearchTest, PlanInsensitiveToOptimismMargin) {
  // At margin = 1e300 the cap degenerates to the roofline alone, so equality here certifies
  // the default margin never binds on a simulated result in this battery — the calibration
  // guard behind the default in algorithms.h.
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get(), 1234, 10.0);
  const PlannerResult calibrated = HighNodeAffinityPlacement(inputs);
  inputs.analytic_optimism_margin = 1e300;
  const PlannerResult roofline_only = HighNodeAffinityPlacement(inputs);
  ExpectPlansIdentical(calibrated, roofline_only);
}

TEST(TieredSearchTest, ThreadedSearchIdenticalToSerialWithTier) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get(), 99, 10.0);
  const PlannerResult serial = HighNodeAffinityPlacement(inputs);
  inputs.num_threads = 4;
  const PlannerResult threaded = HighNodeAffinityPlacement(inputs);
  ExpectPlansIdentical(serial, threaded);
  EXPECT_EQ(serial.simulations_run, threaded.simulations_run);
  EXPECT_EQ(serial.analytic_rejected, threaded.analytic_rejected);
}

}  // namespace
}  // namespace distserve::placement
