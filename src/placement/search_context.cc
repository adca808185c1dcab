#include "placement/search_context.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "placement/analytic_tier.h"
#include "placement/fast_sim.h"

namespace distserve::placement::detail {

model::LatencyModel MakeLm(const PlannerInputs& inputs, const model::ParallelismConfig& par) {
  return model::LatencyModel(inputs.model, par, inputs.cluster.gpu);
}

bool ConfigFeasible(const PlannerInputs& inputs, const model::ParallelismConfig& par) {
  if (par.pp > inputs.model.num_layers) {
    return false;
  }
  // Tensor parallelism shards attention head-wise: tp must divide the head count (e.g. the
  // paper's tp=3 on OPT-175B's 96 heads).
  if (inputs.model.num_heads % par.tp != 0) {
    return false;
  }
  const model::ShardedModelView view(inputs.model, par);
  return view.FitsInMemory(inputs.cluster.gpu);
}

int ReplicaCount(double traffic_rate, double goodput) {
  if (goodput <= 0.0) {
    return 1;  // infeasible config; keep a single instance so the plan stays constructible
  }
  return std::max(1, static_cast<int>(std::ceil(traffic_rate / goodput)));
}

bool Improves(const CandidateResult& candidate, int candidate_gpus,
              const CandidateResult& incumbent, int incumbent_gpus) {
  if (incumbent.per_gpu <= 0.0) {
    return candidate.per_gpu > 0.0;
  }
  if (candidate.per_gpu > incumbent.per_gpu * 1.10) {
    return true;
  }
  return candidate.per_gpu > incumbent.per_gpu * 0.90 && candidate_gpus < incumbent_gpus;
}

model::ParallelismConfig SmallestFeasible(const PlannerInputs& inputs, int max_nodes) {
  const int gpus_per_node = inputs.cluster.gpus_per_node;
  for (int gpus = 1; gpus <= max_nodes * gpus_per_node; ++gpus) {
    for (int tp = 1; tp <= std::min(gpus, gpus_per_node); ++tp) {
      if (gpus % tp != 0) {
        continue;
      }
      const model::ParallelismConfig par{tp, gpus / tp};
      if (ConfigFeasible(inputs, par)) {
        return par;
      }
    }
  }
  return model::ParallelismConfig{gpus_per_node, max_nodes};
}

double SimulatePrefillRate(const PlannerInputs& inputs, const model::ParallelismConfig& par,
                           const GoodputSearchOptions& search, GoodputSearchStats* stats) {
  const model::LatencyModel lm = MakeLm(inputs, par);
  const int64_t target_tokens = std::max<int64_t>(512, lm.ComputeSaturationTokens());
  auto attainment = [&](const workload::Trace& trace) {
    const std::vector<double> finish =
        SimulatePrefillFinishTimes(lm, trace, target_tokens, kPrefillMaxBatch);
    int64_t ok = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
      if (finish[i] - trace[i].arrival_time <= inputs.slo.ttft) {
        ++ok;
      }
    }
    return trace.empty() ? 0.0 : static_cast<double>(ok) / static_cast<double>(trace.size());
  };
  return FindMaxRate(attainment, *inputs.dataset, search, stats);
}

double SimulateDecodeRate(const PlannerInputs& inputs, const model::ParallelismConfig& par,
                          const GoodputSearchOptions& search, GoodputSearchStats* stats) {
  const model::LatencyModel lm = MakeLm(inputs, par);
  const int64_t kv_capacity = lm.view().KvCapacityTokens(inputs.cluster.gpu);
  if (kv_capacity <= 0) {
    return 0.0;
  }
  auto attainment = [&](const workload::Trace& trace) {
    std::vector<double> ready(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      ready[i] = trace[i].arrival_time;
    }
    const std::vector<double> tpots =
        SimulateDecodeTpots(lm, kv_capacity, trace, ready, inputs.decode_max_batch);
    int64_t ok = 0;
    for (double t : tpots) {
      if (t <= inputs.slo.tpot) {
        ++ok;
      }
    }
    return trace.empty() ? 0.0 : static_cast<double>(ok) / static_cast<double>(trace.size());
  };
  return FindMaxRate(attainment, *inputs.dataset, search, stats);
}

void AppendDouble(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a;", v);  // hexfloat: exact, locale-independent
  out += buf;
}

void AppendInt(std::string& out, int64_t v) {
  out += std::to_string(v);
  out += ';';
}

double RateUpperBound(const PlannerInputs& inputs, const model::ParallelismConfig& par,
                      bool is_prefill, const workload::LengthSample& mean) {
  const model::LatencyModel lm = MakeLm(inputs, par);
  if (is_prefill) {
    // Best cadence over power-of-two batches of mean-length prompts (the simulator's batch
    // cap is 64). StageTime is the pipelined completion cadence; mean-length batches
    // under-estimate the quadratic attention term of random batches (Jensen), so this
    // over-estimates throughput.
    std::vector<int> lens;
    double best = 0.0;
    for (int batch = 1; batch <= 64; batch *= 2) {
      lens.assign(static_cast<size_t>(batch), mean.input_len);
      const double cadence = lm.StageTime(model::BatchWorkload::Prefill(lens));
      if (cadence > 0.0) {
        best = std::max(best, static_cast<double>(batch) / cadence);
      }
    }
    return best;
  }
  const int64_t kv_capacity = lm.view().KvCapacityTokens(inputs.cluster.gpu);
  if (kv_capacity <= 0) {
    return 0.0;
  }
  const int64_t tokens_per_req =
      std::max<int64_t>(1, static_cast<int64_t>(mean.input_len) + mean.output_len);
  const int64_t batch = std::max<int64_t>(
      1, std::min<int64_t>(inputs.decode_max_batch, kv_capacity / tokens_per_req));
  // Context under-estimated at the prompt length only (decoded tokens grow it), and
  // StageTime(full batch) <= FullTime(per-lane batch) by subadditivity of LayerTime — both
  // push the estimate above anything the simulator can sustain in steady state.
  const double step = lm.StageTime(
      model::BatchWorkload::Decode(batch, batch * std::max<int64_t>(1, mean.input_len)));
  if (step <= 0.0) {
    return 0.0;
  }
  const double token_rate = static_cast<double>(batch) / step;
  return token_rate / std::max(1, mean.output_len);
}

SearchContext::SearchContext(const PlannerInputs& inputs)
    : inputs_(inputs), search_(inputs.search) {
  DS_CHECK(inputs.dataset != nullptr);
  search_.attainment_target = inputs.attainment_target;
  if (inputs.pool != nullptr) {
    pool_ = inputs.pool;
  } else if (inputs.num_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(inputs.num_threads - 1);
    pool_ = owned_pool_.get();
  }
  // Probe traces are shared across every candidate's rate search; if the caller did not
  // provide a cache, a per-invocation one still collapses the dozens of identical
  // (rate, seed) generations the lattice produces.
  if (!inputs.share_probe_traces) {
    search_.trace_cache = nullptr;
  } else if (search_.trace_cache == nullptr) {
    owned_trace_cache_ = std::make_unique<workload::TraceCache>();
    search_.trace_cache = owned_trace_cache_.get();
  }
  Rng rng(search_.seed ^ kMeanLengthStream);
  mean_ = inputs.dataset->MeanLengths(rng);
  if (inputs.goodput_cache != nullptr) {
    BuildKeyPrefixes();
  }
}

SearchContext::PhaseCaps SearchContext::Caps(const model::ParallelismConfig& par,
                                             bool is_prefill) const {
  PhaseCaps caps;
  caps.roofline_rate = kRooflineSlack * RateUpperBound(inputs_, par, is_prefill, mean_);
  const model::LatencyModel lm = MakeLm(inputs_, par);
  if (is_prefill) {
    caps.analytic_rate = AnalyticMaxPrefillRate(lm, inputs_.slo.ttft, mean_, kPrefillMaxBatch);
  } else {
    caps.analytic_rate =
        AnalyticMaxDecodeRate(lm, inputs_.slo.tpot, mean_,
                              lm.view().KvCapacityTokens(inputs_.cluster.gpu),
                              inputs_.decode_max_batch);
  }
  caps.capped_rate = SanitizedAnalyticCap(caps.analytic_rate, inputs_.analytic_optimism_margin,
                                          caps.roofline_rate);
  return caps;
}

PhaseSim SearchContext::SimulatePhase(const model::ParallelismConfig& par,
                                      bool is_prefill) const {
  const double derate =
      is_prefill ? inputs_.prefill_goodput_derate : inputs_.decode_goodput_derate;
  GoodputCache* cache = inputs_.goodput_cache;
  std::string value_key;
  std::string hint_key;
  GoodputSearchOptions search = search_;
  if (cache != nullptr) {
    value_key = value_prefix_ + ConfigSuffix(par, is_prefill);
    if (const std::optional<double> hit = cache->Lookup(value_key)) {
      return PhaseSim{*hit, true, {}};
    }
  }
  const PhaseCaps caps = Caps(par, is_prefill);
  bool hinted = false;
  if (cache != nullptr) {
    hint_key = hint_prefix_ + ConfigSuffix(par, is_prefill);
    if (const std::optional<double> hint = cache->RateHint(hint_key)) {
      // A hint can now come off disk, where it may predate a recalibration or be outright
      // corrupt. Every in-process hint is a clamped simulation result, so a hint above the
      // tier-1 cap is stale or garbage: clamp it down (non-finite and non-positive hints
      // are dropped) so the probe cannot start above anything this configuration can
      // sustain. The search result is unchanged either way — the hint only picks the
      // probe's starting lattice point — so a bad hint costs probes, never the plan.
      if (std::isfinite(*hint) && *hint > 0.0) {
        search.rate_hint = std::min(*hint, caps.capped_rate);
        hinted = true;
      }
    }
  }
  if (!hinted && !(search.rate_hint > 0.0 && std::isfinite(search.rate_hint)) &&
      std::isfinite(caps.analytic_rate) && caps.analytic_rate > 0.0) {
    // Cold search: the tier-1 estimate itself is the best available guess at where the
    // pass/fail boundary sits, so start the probe walk there instead of at rate_probe.
    // Same contract as a cached hint — it only moves the starting lattice point.
    search.rate_hint = std::min(caps.analytic_rate, caps.capped_rate);
  }
  if (inputs_.use_analytic_tier) {
    // Cap-out short-circuit (goodput.h): the probe walk may stop at the first passing
    // rate >= the cap we clamp the result to below — the clamped value is provably the
    // cap either way. Gated with the tier so tier-off measures the full pre-tier walk;
    // the recorded goodput is bit-identical in both modes.
    search.rate_cap = caps.capped_rate;
  }
  PhaseSim sim;
  const double raw = is_prefill ? SimulatePrefillRate(inputs_, par, search, &sim.stats)
                                : SimulateDecodeRate(inputs_, par, search, &sim.stats);
  // Clamp to the tier-1 cap (analytic estimate * margin, itself clamped to the roofline —
  // see RateUpperBound and analytic_tier.h): discards finite-trial cap-out artifacts and
  // guarantees every result stays below GoodputUpperBounds().tier_goodput.
  const double rate = std::min(raw, caps.capped_rate);
  sim.goodput = derate * rate;
  if (cache != nullptr) {
    cache->Insert(value_key, sim.goodput);
    cache->UpdateRateHint(hint_key, rate);
  }
  return sim;
}

SearchContext::PhaseBounds SearchContext::GoodputUpperBounds(const model::ParallelismConfig& par,
                                                             bool is_prefill) const {
  const double derate =
      is_prefill ? inputs_.prefill_goodput_derate : inputs_.decode_goodput_derate;
  const PhaseCaps caps = Caps(par, is_prefill);
  return PhaseBounds{derate * caps.roofline_rate, derate * caps.capped_rate};
}

std::string SearchContext::ConfigSuffix(const model::ParallelismConfig& par, bool is_prefill) {
  std::string out;
  AppendInt(out, par.tp);
  AppendInt(out, par.pp);
  out += is_prefill ? 'p' : 'd';
  return out;
}

void SearchContext::BuildKeyPrefixes() {
  // Everything besides (par, phase) that determines a simulated goodput. Doubles are
  // rendered as hexfloats so the fingerprint is exact. The cluster's GPU identity (name and
  // every numeric spec field) is part of the prefix, so in a heterogeneous fleet each pool's
  // entries key separately for free — the same physical cache file serves every pool.
  std::string s;
  s += inputs_.model.name;
  s += '|';
  AppendInt(s, inputs_.model.num_layers);
  AppendInt(s, inputs_.model.hidden_size);
  AppendInt(s, inputs_.model.num_heads);
  AppendInt(s, inputs_.model.ffn_size);
  AppendInt(s, inputs_.model.vocab_size);
  AppendInt(s, inputs_.model.dtype_bytes);
  s += inputs_.cluster.gpu.name;
  s += '|';
  AppendDouble(s, inputs_.cluster.gpu.peak_fp16_flops);
  AppendDouble(s, inputs_.cluster.gpu.hbm_bandwidth);
  AppendInt(s, inputs_.cluster.gpu.memory_bytes);
  AppendDouble(s, inputs_.cluster.gpu.compute_efficiency);
  AppendDouble(s, inputs_.cluster.gpu.memory_efficiency);
  AppendDouble(s, inputs_.cluster.gpu.nvlink_bandwidth);
  AppendDouble(s, inputs_.cluster.gpu.allreduce_latency);
  AppendDouble(s, inputs_.slo.ttft);
  AppendDouble(s, inputs_.slo.tpot);
  AppendDouble(s, search_.attainment_target);
  // The hint prefix stops here: it identifies the configuration and its SLO regime but not
  // the workload, so a re-search after traffic drift still finds a warm start. (The
  // optimism margin is deliberately absent too — hints are advisory, so a margin change
  // costs at most probes.)
  hint_prefix_ = s + "hint|";
  // The margin enters the value a simulation stores (rates are clamped to margin-scaled
  // analytic caps), so it must be part of the value key: a margin change silently
  // invalidates every persisted goodput rather than replaying values computed under a
  // different clamp — which would break tier-on/off bit-identity.
  AppendDouble(s, inputs_.analytic_optimism_margin);
  AppendDouble(s, inputs_.prefill_goodput_derate);
  AppendDouble(s, inputs_.decode_goodput_derate);
  AppendInt(s, inputs_.decode_max_batch);
  AppendDouble(s, search_.rate_floor);
  AppendDouble(s, search_.rate_probe);
  AppendInt(s, search_.bisection_iters);
  AppendInt(s, search_.num_requests);
  AppendDouble(s, search_.min_trace_duration);
  AppendInt(s, search_.max_requests);
  AppendDouble(s, search_.burstiness_cv);
  AppendInt(s, static_cast<int64_t>(search_.seed));
  s += inputs_.dataset->identity();
  s += '|';
  value_prefix_ = std::move(s);
}

}  // namespace distserve::placement::detail
