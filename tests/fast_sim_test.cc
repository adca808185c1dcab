#include "placement/fast_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "cluster/gpu_spec.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::placement {
namespace {

model::LatencyModel Lm13B(int tp = 1, int pp = 1) {
  return model::LatencyModel(model::ModelSpec::Opt13B(), {tp, pp},
                             cluster::GpuSpec::A100_80GB());
}

workload::Trace FixedTrace(double rate, int n, int in, int out, uint64_t seed = 1) {
  workload::FixedDataset dataset(in, out);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

TEST(FastAttainmentTest, CountsMarginals) {
  std::vector<FastRecord> records = {
      {0.1, 0.05},  // both
      {0.5, 0.05},  // tpot only
      {0.1, 0.50},  // ttft only
      {0.5, 0.50},  // neither
  };
  const metrics::Attainment a = FastAttainment(records, {0.2, 0.1});
  EXPECT_DOUBLE_EQ(a.both, 0.25);
  EXPECT_DOUBLE_EQ(a.ttft_only, 0.5);
  EXPECT_DOUBLE_EQ(a.tpot_only, 0.5);
  EXPECT_DOUBLE_EQ(FastAttainment({}, {1, 1}).both, 0.0);
}

// need_ok() is exactly the ratio rule `double(ok) / double(n) >= target`: for every n up to
// 5000 and every ok count, at the planner's usual targets, at a target that is not what it
// looks like (0.1 + 0.2 > 0.3), and one ulp either side of 0.9.
TEST(SloVerdictTest, NeedOkIsTheRatioRule) {
  std::vector<double> targets = {0.5, 0.9, 0.95, 0.99, 1.0, 0.1 + 0.2};
  targets.push_back(std::nextafter(0.9, 0.0));
  targets.push_back(std::nextafter(0.9, 1.0));
  for (const double target : targets) {
    for (int64_t n = 1; n <= 5000; ++n) {
      const int64_t need_ok = SloVerdict(n, target).need_ok();
      const double dn = static_cast<double>(n);
      for (int64_t ok = 0; ok <= n; ++ok) {
        ASSERT_EQ(ok >= need_ok, static_cast<double>(ok) / dn >= target)
            << "target=" << target << " n=" << n << " ok=" << ok;
      }
    }
  }
  // An empty probe attains 0; a target above 1 never passes.
  EXPECT_TRUE(SloVerdict(0, 0.0).passed());
  EXPECT_FALSE(SloVerdict(0, 0.9).passed());
  EXPECT_TRUE(SloVerdict(0, 0.9).settled());
  EXPECT_EQ(SloVerdict(10, 1.5).need_ok(), 11);
}

TEST(SloVerdictTest, SettlesAsSoonAsTheCountsDecideIt) {
  // n = 10 at 0.9: 9 oks pass; a second failure fails.
  SloVerdict pass(10, 0.9);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(pass.Count(true));
  }
  EXPECT_TRUE(pass.Count(false));
  EXPECT_FALSE(pass.Count(true));
  EXPECT_TRUE(pass.passed());
  SloVerdict fail(10, 0.9);
  EXPECT_TRUE(fail.Count(false));
  EXPECT_FALSE(fail.Count(false));
  EXPECT_FALSE(fail.passed());
}

// The early-stopped probes give the verdict of the full simulation's attainment ratio, at
// rates from clearly passing through the knee to clearly failing, at several targets and SLOs,
// with single-token outputs (TPOT 0) and requests that never fit in KV (TPOT infinite) mixed
// into the decode traces.
TEST(ProbeVerdictTest, EarlyStoppedVerdictsEqualFullRunVerdicts) {
  const model::LatencyModel lm = Lm13B();
  const auto dataset = workload::MakeShareGptLike();
  const int64_t kv_capacity = lm.view().KvCapacityTokens(cluster::GpuSpec::A100_80GB());
  int passes = 0;
  int fails = 0;
  for (double rate = 0.25; rate <= 64.0; rate *= 1.19) {
    workload::TraceSpec spec;
    spec.rate = rate;
    spec.num_requests = 600;
    spec.seed = 17;
    workload::Trace trace = workload::GenerateTrace(spec, *dataset);
    for (size_t i = 0; i < trace.size(); i += 37) {
      trace[i].output_len = 1;  // single-token output
    }
    for (size_t i = 5; i < trace.size(); i += 53) {
      trace[i].input_len = static_cast<int>(kv_capacity);  // can never fit
    }
    std::vector<double> ready(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      ready[i] = trace[i].arrival_time;
    }
    const std::vector<double> finish = SimulatePrefillFinishTimes(lm, trace, 512, 64);
    const std::vector<double> tpots = SimulateDecodeTpots(lm, kv_capacity, trace, ready, 256);
    const double n = static_cast<double>(trace.size());
    for (const double target : {0.5, 0.9, 0.99}) {
      for (const double ttft_slo : {0.1, 0.4}) {
        int64_t ok = 0;
        for (size_t i = 0; i < trace.size(); ++i) {
          ok += finish[i] - trace[i].arrival_time <= ttft_slo ? 1 : 0;
        }
        const bool full = static_cast<double>(ok) / n >= target;
        ASSERT_EQ(PrefillProbePasses(lm, trace, 512, 64, ttft_slo, target), full)
            << "rate=" << rate << " target=" << target << " ttft=" << ttft_slo;
        (full ? passes : fails) += 1;
      }
      for (const double tpot_slo : {0.05, 0.1, std::numeric_limits<double>::infinity()}) {
        int64_t ok = 0;
        for (const double t : tpots) {
          ok += t <= tpot_slo ? 1 : 0;
        }
        const bool full = static_cast<double>(ok) / n >= target;
        ASSERT_EQ(DecodeProbePasses(lm, kv_capacity, trace, ready, 256, tpot_slo, target), full)
            << "rate=" << rate << " target=" << target << " tpot=" << tpot_slo;
        (full ? passes : fails) += 1;
      }
    }
  }
  // Not vacuous: the sweep crosses the knee.
  EXPECT_GT(passes, 20);
  EXPECT_GT(fails, 20);
}

TEST(FastPrefillTest, LowRateTtftIsExecutionTime) {
  const model::LatencyModel lm = Lm13B();
  const workload::Trace trace = FixedTrace(0.1, 50, 512, 8);
  const std::vector<double> finish = SimulatePrefillFinishTimes(lm, trace, 512, 64);
  const double exec = lm.PrefillFullTime(std::vector<int>{512});
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(finish[i] - trace[i].arrival_time, exec, 1e-9) << i;
  }
}

TEST(FastPrefillTest, OverloadGrowsQueueing) {
  const model::LatencyModel lm = Lm13B();
  const double exec = lm.PrefillFullTime(std::vector<int>{512});
  const double overload_rate = 1.5 / exec;  // utilization 1.5
  const workload::Trace trace = FixedTrace(overload_rate, 200, 512, 8);
  const std::vector<double> finish = SimulatePrefillFinishTimes(lm, trace, 512, 64);
  // Later requests wait far longer than execution time.
  EXPECT_GT(finish.back() - trace.back().arrival_time, 10.0 * exec);
}

TEST(FastPrefillTest, ShortPromptsBatchTogether) {
  const model::LatencyModel lm = Lm13B();
  // 100 requests of 64 tokens arriving simultaneously: batching packs ~8 per 512-token batch.
  workload::Trace trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back(workload::Request{i, 0.0, 64, 8});
  }
  const std::vector<double> batched = SimulatePrefillFinishTimes(lm, trace, 512, 64);
  const std::vector<double> solo = SimulatePrefillFinishTimes(lm, trace, 64, 1);
  EXPECT_LT(batched.back(), solo.back());
}

TEST(FastDecodeTest, UnloadedTpotMatchesStepTime) {
  const model::LatencyModel lm = Lm13B();
  workload::Trace trace = {workload::Request{0, 0.0, 128, 11}};
  const std::vector<double> ready = {0.0};
  const std::vector<double> tpots = SimulateDecodeTpots(lm, 1 << 20, trace, ready, 256);
  // 10 decode steps at ctx ~ 129..138: close to a single-step estimate.
  const double step = lm.DecodeStepFullTime(1, 134);
  EXPECT_NEAR(tpots[0], step, 0.1 * step);
}

TEST(FastDecodeTest, MemoryPressureInflatesTpotViaQueueing) {
  const model::LatencyModel lm = Lm13B();
  workload::Trace trace;
  std::vector<double> ready;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(workload::Request{i, 0.0, 100, 30});
    ready.push_back(0.0);
  }
  const std::vector<double> roomy = SimulateDecodeTpots(lm, 1 << 20, trace, ready, 256);
  const std::vector<double> tight = SimulateDecodeTpots(lm, 200, trace, ready, 256);
  // With room for ~1 request at a time, later requests queue: max TPOT explodes.
  double roomy_max = 0.0;
  double tight_max = 0.0;
  for (int i = 0; i < 20; ++i) {
    roomy_max = std::max(roomy_max, roomy[static_cast<size_t>(i)]);
    tight_max = std::max(tight_max, tight[static_cast<size_t>(i)]);
  }
  EXPECT_GT(tight_max, 5.0 * roomy_max);
}

TEST(FastDecodeTest, SingleTokenOutputsReportZero) {
  const model::LatencyModel lm = Lm13B();
  workload::Trace trace = {workload::Request{0, 0.0, 128, 1}};
  const std::vector<double> tpots = SimulateDecodeTpots(lm, 1 << 20, trace, {0.0}, 256);
  EXPECT_DOUBLE_EQ(tpots[0], 0.0);
}

TEST(FastDisaggregatedTest, RecordsBothMetrics) {
  const model::LatencyModel lm = Lm13B();
  DisaggregatedFastConfig config;
  config.decode_kv_capacity_tokens = 1 << 20;
  const workload::Trace trace = FixedTrace(2.0, 100, 256, 16);
  const auto records = SimulateDisaggregated(lm, lm, trace, config);
  ASSERT_EQ(records.size(), trace.size());
  for (const FastRecord& r : records) {
    EXPECT_GT(r.ttft, 0.0);
    EXPECT_GT(r.tpot, 0.0);
  }
}

TEST(FastDisaggregatedTest, MorePrefillInstancesCutTtft) {
  const model::LatencyModel lm = Lm13B();
  DisaggregatedFastConfig one;
  one.decode_kv_capacity_tokens = 1 << 20;
  DisaggregatedFastConfig four = one;
  four.num_prefill = 4;
  const double exec = lm.PrefillFullTime(std::vector<int>{512});
  const workload::Trace trace = FixedTrace(0.9 / exec, 300, 512, 8);
  const auto r1 = SimulateDisaggregated(lm, lm, trace, one);
  const auto r4 = SimulateDisaggregated(lm, lm, trace, four);
  auto p90 = [](const std::vector<FastRecord>& records) {
    std::vector<double> ttfts;
    for (const FastRecord& r : records) {
      ttfts.push_back(r.ttft);
    }
    std::sort(ttfts.begin(), ttfts.end());
    return ttfts[static_cast<size_t>(0.9 * ttfts.size())];
  };
  EXPECT_LT(p90(r4), p90(r1));
}

TEST(FastColocatedTest, InterferenceInflatesTpotVsDisaggregated) {
  // The central claim of the paper at fast-sim level: at the same moderate load, colocated
  // serving shows far worse TPOT than disaggregated serving.
  const model::LatencyModel lm = Lm13B();
  const workload::Trace trace = FixedTrace(4.0, 400, 512, 64, 3);
  ColocatedFastConfig coloc;
  coloc.kv_capacity_tokens = 1 << 20;
  DisaggregatedFastConfig disagg;
  disagg.decode_kv_capacity_tokens = 1 << 20;
  const auto rc = SimulateColocated(lm, trace, coloc);
  const auto rd = SimulateDisaggregated(lm, lm, trace, disagg);
  double coloc_tpot = 0.0;
  double disagg_tpot = 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    coloc_tpot += rc[i].tpot;
    disagg_tpot += rd[i].tpot;
  }
  EXPECT_GT(coloc_tpot, 2.0 * disagg_tpot);
}

TEST(FastColocatedTest, AllRequestsServed) {
  const model::LatencyModel lm = Lm13B();
  ColocatedFastConfig config;
  config.kv_capacity_tokens = 50000;
  config.num_instances = 2;
  const workload::Trace trace = FixedTrace(6.0, 500, 200, 40, 11);
  const auto records = SimulateColocated(lm, trace, config);
  ASSERT_EQ(records.size(), 500u);
  for (const FastRecord& r : records) {
    EXPECT_GT(r.ttft, 0.0);
    EXPECT_GT(r.tpot, 0.0);
  }
}

// A request that can never fit the KV pool fails both SLOs, also when it arrives last, with
// nothing else left to run.
TEST(FastColocatedTest, UnservableLastRequestFailsBothSlos) {
  workload::Trace trace(2);
  trace[0].id = 0;
  trace[0].input_len = 64;
  trace[0].output_len = 4;
  trace[1].id = 1;
  trace[1].arrival_time = 5.0;
  trace[1].input_len = 4000;
  trace[1].output_len = 4;
  for (int64_t chunk_budget : {0, 256}) {
    ColocatedFastConfig config;
    config.kv_capacity_tokens = 1000;
    config.chunk_budget = chunk_budget;
    const std::vector<FastRecord> records = SimulateColocated(Lm13B(), trace, config);
    EXPECT_GT(records[0].ttft, 0.0);
    EXPECT_LT(records[0].ttft, 1.0);
    EXPECT_TRUE(std::isinf(records[1].ttft));
    EXPECT_TRUE(std::isinf(records[1].tpot));
  }
}

TEST(FastColocatedTest, MoreInstancesImproveTtft) {
  const model::LatencyModel lm = Lm13B();
  ColocatedFastConfig one;
  one.kv_capacity_tokens = 1 << 20;
  ColocatedFastConfig two = one;
  two.num_instances = 2;
  const workload::Trace trace = FixedTrace(8.0, 400, 512, 32, 13);
  const auto r1 = SimulateColocated(lm, trace, one);
  const auto r2 = SimulateColocated(lm, trace, two);
  double t1 = 0.0;
  double t2 = 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    t1 += r1[i].ttft;
    t2 += r2[i].ttft;
  }
  EXPECT_LT(t2, t1);
}

// Per-step reference for one colocated instance: every resident decode is walked and
// compacted on each step it advances, with remaining-token and context counters per member.
// The production loop keys members on their finish step instead, and must reproduce this
// loop bit for bit.
std::vector<FastRecord> ReferenceColocatedOne(const model::LatencyModel& lm,
                                              const workload::Trace& trace,
                                              const ColocatedFastConfig& config) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<FastRecord> records(trace.size());
  struct Active {
    size_t idx;
    int remaining;
    int64_t ctx;
    double first_token;
  };
  struct Prefilling {
    size_t idx;
    int64_t done;
  };
  std::deque<size_t> waiting;
  std::deque<Prefilling> prefilling;
  std::vector<Active> decoding;
  size_t next_arrival = 0;
  double now = 0.0;
  int64_t used_tokens = 0;
  int64_t decode_ctx_sum = 0;
  const bool chunked = config.chunk_budget > 0;
  while (true) {
    while (next_arrival < trace.size() && trace[next_arrival].arrival_time <= now) {
      waiting.push_back(next_arrival++);
    }
    if (waiting.empty() && prefilling.empty() && decoding.empty()) {
      if (next_arrival >= trace.size()) {
        break;
      }
      now = trace[next_arrival].arrival_time;
      continue;
    }
    model::BatchWorkload workload;
    std::vector<size_t> prefilled_now;
    int64_t prefill_tokens = 0;
    bool decodes_advance = false;
    if (chunked) {
      while (!waiting.empty() &&
             static_cast<int>(decoding.size() + prefilling.size()) < config.max_batch_size) {
        const size_t idx = waiting.front();
        const int64_t need = trace[idx].total_len();
        if (need > config.kv_capacity_tokens) {
          records[idx] = {kInf, kInf};
          waiting.pop_front();
          continue;
        }
        if (used_tokens + need > config.kv_capacity_tokens) {
          break;
        }
        used_tokens += need;
        waiting.pop_front();
        prefilling.push_back(Prefilling{idx, trace[idx].cached_prefix_len});
      }
      int64_t budget = config.chunk_budget - static_cast<int64_t>(decoding.size());
      auto it = prefilling.begin();
      while (budget > 0 && it != prefilling.end()) {
        const int64_t chunk = std::min(trace[it->idx].input_len - it->done, budget);
        workload.prefill_tokens += chunk;
        workload.prefill_sq_tokens +=
            static_cast<double>(chunk) *
            (static_cast<double>(it->done) + static_cast<double>(chunk));
        it->done += chunk;
        prefill_tokens += chunk;
        budget -= chunk;
        if (it->done == trace[it->idx].input_len) {
          prefilled_now.push_back(it->idx);
          it = prefilling.erase(it);
        } else {
          ++it;
        }
      }
      decodes_advance = !decoding.empty();
    } else {
      while (!waiting.empty() &&
             static_cast<int>(decoding.size() + prefilled_now.size()) <
                 config.max_batch_size) {
        const size_t idx = waiting.front();
        const int64_t need = trace[idx].total_len();
        if (need > config.kv_capacity_tokens) {
          records[idx] = {kInf, kInf};
          waiting.pop_front();
          continue;
        }
        if (used_tokens + need > config.kv_capacity_tokens) {
          break;
        }
        const int64_t computed = trace[idx].input_len - trace[idx].cached_prefix_len;
        if (!prefilled_now.empty() &&
            prefill_tokens + computed > config.max_prefill_tokens_per_step) {
          break;
        }
        used_tokens += need;
        waiting.pop_front();
        workload.prefill_tokens += computed;
        workload.prefill_sq_tokens +=
            static_cast<double>(computed) * static_cast<double>(trace[idx].input_len);
        prefill_tokens += computed;
        prefilled_now.push_back(idx);
      }
      decodes_advance = decoding.empty() ? false : prefilled_now.empty();
    }
    if (decodes_advance) {
      workload.decode_requests = static_cast<int64_t>(decoding.size());
      workload.decode_context_tokens = decode_ctx_sum;
    }
    if (workload.empty()) {
      now = trace[next_arrival].arrival_time;
      continue;
    }
    now += lm.FullTime(workload) + config.cpu_overhead_per_step;
    if (decodes_advance) {
      size_t write = 0;
      for (Active& a : decoding) {
        --a.remaining;
        ++a.ctx;
        ++decode_ctx_sum;
        if (a.remaining <= 0) {
          decode_ctx_sum -= a.ctx;
          records[a.idx].tpot =
              (now - a.first_token) / static_cast<double>(trace[a.idx].output_len - 1);
          used_tokens -= trace[a.idx].total_len();
        } else {
          decoding[write++] = a;
        }
      }
      decoding.resize(write);
    }
    for (size_t idx : prefilled_now) {
      records[idx].ttft = now - trace[idx].arrival_time;
      if (trace[idx].output_len <= 1) {
        used_tokens -= trace[idx].total_len();
      } else {
        const int64_t ctx = static_cast<int64_t>(trace[idx].input_len) + 1;
        decoding.push_back(Active{idx, trace[idx].output_len - 1, ctx, now});
        decode_ctx_sum += ctx;
      }
    }
  }
  return records;
}

// Round-robin over instances, as SimulateColocated dispatches.
std::vector<FastRecord> ReferenceColocated(const model::LatencyModel& lm,
                                           const workload::Trace& trace,
                                           const ColocatedFastConfig& config) {
  std::vector<FastRecord> records(trace.size());
  const size_t n = static_cast<size_t>(config.num_instances);
  for (size_t inst = 0; inst < n; ++inst) {
    workload::Trace sub;
    for (size_t i = inst; i < trace.size(); i += n) {
      sub.push_back(trace[i]);
    }
    const std::vector<FastRecord> sub_records = ReferenceColocatedOne(lm, sub, config);
    for (size_t k = 0; k < sub.size(); ++k) {
      records[inst + k * n] = sub_records[k];
    }
  }
  return records;
}

TEST(FastColocatedTest, BitIdenticalToPerStepReference) {
  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec spec;
  spec.rate = 8.0;
  spec.num_requests = 200;
  spec.seed = 17;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  // Prefix-cache hits on every third prompt: they skip compute but keep their KV footprint.
  int64_t longest = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i % 3 == 0) {
      trace[i].cached_prefix_len = trace[i].input_len / 2;
    }
    longest = std::max<int64_t>(longest, trace[i].total_len());
  }
  const model::LatencyModel lm = Lm13B();
  bool saw_unservable = false;
  for (int64_t chunk_budget : {int64_t{0}, int64_t{512}}) {
    // 1M tokens is unconstrained; four longest requests' worth queues admissions behind
    // completions; one token short of the longest leaves it (at least) unservable.
    for (int64_t kv_capacity : {int64_t{1} << 20, 4 * longest, longest - 1}) {
      for (int max_batch : {256, 4}) {
        for (int instances : {1, 2}) {
          ColocatedFastConfig config;
          config.num_instances = instances;
          config.kv_capacity_tokens = kv_capacity;
          config.max_batch_size = max_batch;
          config.chunk_budget = chunk_budget;
          config.cpu_overhead_per_step = instances == 2 ? 1e-3 : 0.0;
          const std::vector<FastRecord> expected = ReferenceColocated(lm, trace, config);
          const std::vector<FastRecord> actual = SimulateColocated(lm, trace, config);
          ASSERT_EQ(expected.size(), actual.size());
          for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(expected[i].ttft, actual[i].ttft)
                << "chunk=" << chunk_budget << " kv=" << kv_capacity << " batch=" << max_batch
                << " inst=" << instances << " i=" << i;
            EXPECT_EQ(expected[i].tpot, actual[i].tpot)
                << "chunk=" << chunk_budget << " kv=" << kv_capacity << " batch=" << max_batch
                << " inst=" << instances << " i=" << i;
            saw_unservable = saw_unservable || std::isinf(actual[i].tpot);
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_unservable);
}

}  // namespace
}  // namespace distserve::placement
