#include "placement/search_context.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "placement/analytic_tier.h"
#include "placement/fast_sim.h"

namespace distserve::placement::detail {
namespace {

// The simulator's prefill batch cap (SimulatePrefillFinishTimes callers); the analytic tier
// and the roofline bound scan batch sizes up to the same cap so their idealised batching
// never assumes a batch the simulator could not form.
constexpr int kPrefillMaxBatch = 64;

// Slack multiplier on the analytic saturation-throughput roofline. The roofline already
// assumes a best case (perfect batching, zero queueing, no SLO constraint, Jensen-favourable
// mean-length batches); the slack additionally absorbs trace sampling variation around the
// Monte-Carlo mean lengths.
constexpr double kRooflineSlack = 1.5;

// Stream-fork constant for the mean-length estimation RNG (SplitMix64 golden gamma), so the
// estimate never perturbs trace generation streams.
constexpr uint64_t kMeanLengthStream = 0x9e3779b97f4a7c15ull;

model::LatencyModel MakeLm(const PlannerInputs& inputs, const model::ParallelismConfig& par) {
  return model::LatencyModel(inputs.model, par, inputs.cluster.gpu);
}

// Raw (un-derated) max rate for one phase config. Pure: depends only on (inputs, par, search),
// so instances may run concurrently on pool workers.
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

// Analytic roofline on a phase config's sustainable request rate (un-derated, un-slacked):
// saturation throughput at mean request lengths, ignoring SLOs and queueing.
//
// This plays two roles. Simulated rates are clamped to kRooflineSlack times this value —
// FindMaxRate's finite trial can report "effectively unbounded" rates for large decode
// configs (the whole capped trace drains fast enough that per-token queueing amortizes under
// the TPOT SLO), but no real deployment sustains arrivals beyond the roofline, so the clamp
// removes a pure small-trial artifact. And because results are clamped to slack * roofline,
// the prune bound derate * slack * roofline is a true upper bound on any simulated goodput
// BY CONSTRUCTION, which is what makes the pruned fold bit-identical to the full one.
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

// One task per memo key, in key order (PhaseMemo::Key).
std::vector<std::function<PhaseSim()>> PhaseTasks(
    const SearchContext& ctx, const std::vector<model::ParallelismConfig>& configs) {
  std::vector<std::function<PhaseSim()>> tasks;
  tasks.reserve(2 * configs.size());
  for (const bool is_prefill : {true, false}) {
    for (const model::ParallelismConfig& par : configs) {
      tasks.push_back([c = &ctx, par, is_prefill] { return c->SimulatePhase(par, is_prefill); });
    }
  }
  return tasks;
}

}  // namespace

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

std::vector<model::ParallelismConfig> PhaseConfigs(const PlannerInputs& inputs, int max_nodes) {
  const int gpus_per_node = inputs.cluster.gpus_per_node;
  std::vector<model::ParallelismConfig> configs;
  for (int intra = 1; intra <= gpus_per_node; ++intra) {
    const int max_inter = (max_nodes * gpus_per_node) / intra;
    for (int inter = 1; inter <= max_inter; ++inter) {
      const model::ParallelismConfig par{intra, inter};
      if (ConfigFeasible(inputs, par)) {
        configs.push_back(par);
      }
    }
  }
  return configs;
}

int ReplicaCount(double traffic_rate, double goodput) {
  if (goodput <= 0.0) {
    return 1;  // infeasible config; keep a single instance so the plan stays constructible
  }
  return std::max(1, static_cast<int>(std::ceil(traffic_rate / goodput)));
}

int64_t NeededGpus(double rate, double goodput, int gpus) {
  if (goodput <= 0.0) {
    return kInfGpus;
  }
  return static_cast<int64_t>(ReplicaCount(rate, goodput)) * gpus;
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

PhaseMemo::PhaseMemo(const SearchContext& ctx, std::vector<model::ParallelismConfig> configs)
    : ctx_(ctx),
      configs_(std::move(configs)),
      bounds_(2 * configs_.size()),
      visited_(2 * configs_.size(), 0),
      forced_(2 * configs_.size(), 0),
      sims_(ctx.pool(), PhaseTasks(ctx, configs_)) {}

std::optional<size_t> PhaseMemo::Find(bool is_prefill, const model::ParallelismConfig& par) const {
  for (size_t i = 0; i < configs_.size(); ++i) {
    if (configs_[i].tp == par.tp && configs_[i].pp == par.pp) {
      return Key(is_prefill, i);
    }
  }
  return std::nullopt;
}

const SearchContext::PhaseBounds& PhaseMemo::Bounds(size_t key) {
  std::optional<SearchContext::PhaseBounds>& slot = bounds_[key];
  if (!slot.has_value()) {
    const bool is_prefill = key < configs_.size();
    slot = ctx_.GoodputUpperBounds(configs_[key % configs_.size()], is_prefill);
  }
  return *slot;
}

void PhaseMemo::Visit(size_t key) {
  if (!visited_[key]) {
    visited_[key] = 1;
    ++cost_.keys_visited;
  }
}

double PhaseMemo::Force(size_t key) {
  const PhaseSim& sim = sims_.Force(key);
  if (!forced_[key]) {
    forced_[key] = 1;
    ++cost_.simulations_run;
    cost_.probes += sim.stats.probes;
    cost_.trace_cache_hits += sim.stats.trace_cache_hits;
    if (sim.cache_hit) {
      ++cost_.cache_hits;
    }
  }
  return sim.goodput;
}

namespace {

// Prefers `candidate` over `incumbent` on per-GPU goodput, breaking near-ties (within 10%)
// toward the smaller instance: replication scales capacity just as well, smaller instances
// quantize better against the actual traffic rate, and they bound the fault blast radius
// (§4.3 discusses decode-instance faults crippling many prefill instances).
//
// Monotone in candidate.per_gpu for fixed GPU counts — the property the upper-bound prune
// relies on: if a candidate built from an *over*-estimate of the goodput does not improve on
// the incumbent, the actually-simulated candidate cannot either.
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

// One fold's incumbent under its objective, plus the prune and keep bookkeeping both folds
// share.
class Fold {
 public:
  Fold(const PlannerInputs& inputs, const FoldObjective& objective)
      : inputs_(inputs),
        max_goodput_(objective.objective == PlannerObjective::kMaxGoodput),
        capacity_(objective.capacity) {}

  // Two-tier prune with attribution: true (and counted) when the candidate, credited with
  // the min of its keys' goodput bounds (a phase candidate passes its one key twice), still
  // cannot replace the incumbent. Strict on ties under kMinGpus, which settles them on the
  // simulated goodput.
  bool Pruned(PhaseMemo& memo, size_t key_a, size_t key_b, int gpus) {
    if (!inputs_.prune_search_space) {
      return false;
    }
    const SearchContext::PhaseBounds& a = memo.Bounds(key_a);
    const SearchContext::PhaseBounds& b = memo.Bounds(key_b);
    if (!CouldWin(std::min(a.roofline_goodput, b.roofline_goodput), gpus)) {
      ++result_.pruned_roofline;
      return true;
    }
    if (inputs_.use_analytic_tier && !CouldWin(std::min(a.tier_goodput, b.tier_goodput), gpus)) {
      ++result_.pruned_tier;
      return true;
    }
    return false;
  }

  // Records a simulated candidate and makes it the incumbent if it ranks higher.
  void Offer(const CandidateResult& candidate, int gpus) {
    result_.kept.push_back(candidate);
    bool better = false;
    if (max_goodput_) {
      better = Improves(candidate, gpus, result_.best, result_.best_gpus);
    } else {
      const int64_t total = NeededGpus(inputs_.traffic_rate, candidate.goodput, gpus);
      better = total <= capacity_ &&
               (total < best_total_ ||
                (total == best_total_ && candidate.goodput > result_.best.goodput));
      if (better) {
        best_total_ = total;
      }
    }
    if (better) {
      result_.found = true;
      result_.best = candidate;
      result_.best_gpus = gpus;
    }
  }

  FoldResult Take() { return std::move(result_); }

 private:
  bool CouldWin(double goodput_bound, int gpus) const {
    if (max_goodput_) {
      const CandidateResult at_bound{{}, goodput_bound, goodput_bound / gpus, 0, 0};
      return Improves(at_bound, gpus, result_.best, result_.best_gpus);
    }
    const int64_t needed = NeededGpus(inputs_.traffic_rate, goodput_bound, gpus);
    return needed <= capacity_ && needed <= best_total_;
  }

  const PlannerInputs& inputs_;
  const bool max_goodput_;
  const int64_t capacity_;
  int64_t best_total_ = kInfGpus;  // kMinGpus: GPUs the incumbent needs
  FoldResult result_;
};

}  // namespace

FoldResult FoldPhase(PhaseMemo& memo, bool is_prefill, const FoldObjective& objective) {
  Fold fold(memo.inputs(), objective);
  for (size_t i = 0; i < memo.configs().size(); ++i) {
    const model::ParallelismConfig& par = memo.configs()[i];
    const size_t key = memo.Key(is_prefill, i);
    const int gpus = par.num_gpus();
    memo.Visit(key);
    if (fold.Pruned(memo, key, key, gpus)) {
      memo.Skip(key);
      continue;
    }
    const double goodput = memo.Force(key);
    fold.Offer(CandidateResult{par, goodput, goodput / gpus, 0, 0}, gpus);
  }
  return fold.Take();
}

std::vector<SegmentPair> SegmentPairs(const PhaseMemo& memo, int max_inter) {
  const int gpus_per_node = memo.inputs().cluster.gpus_per_node;
  std::vector<SegmentPair> pairs;
  for (int inter = 1; inter <= max_inter; ++inter) {
    for (int tp_p = 1; tp_p < gpus_per_node; ++tp_p) {
      const std::optional<size_t> prefill = memo.Find(/*is_prefill=*/true, {tp_p, inter});
      if (!prefill) {
        continue;
      }
      for (int tp_d = 1; tp_p + tp_d <= gpus_per_node; ++tp_d) {
        if (const std::optional<size_t> decode = memo.Find(/*is_prefill=*/false, {tp_d, inter})) {
          pairs.push_back(SegmentPair{inter, tp_p, tp_d, *prefill, *decode});
        }
      }
    }
  }
  return pairs;
}

FoldResult FoldPairs(PhaseMemo& memo, const std::vector<SegmentPair>& pairs,
                     const FoldObjective& objective) {
  Fold fold(memo.inputs(), objective);
  for (const SegmentPair& pair : pairs) {
    memo.Visit(pair.prefill_key);
    memo.Visit(pair.decode_key);
    // Phase sims a pruned pair skips may still be forced by another pair, so nothing is
    // cancelled here.
    if (fold.Pruned(memo, pair.prefill_key, pair.decode_key, pair.gpus())) {
      continue;
    }
    const double pg = memo.Force(pair.prefill_key);
    const double dg = memo.Force(pair.decode_key);
    if (pg <= 0.0 || dg <= 0.0) {
      continue;
    }
    const double goodput = std::min(pg, dg);
    fold.Offer(CandidateResult{model::ParallelismConfig{0, pair.inter}, goodput,
                               goodput / static_cast<double>(pair.gpus()), pair.tp_p,
                               pair.tp_d},
               pair.gpus());
  }
  return fold.Take();
}

}  // namespace distserve::placement::detail
