// The paper's placement algorithms.
//
// Algorithm 1 (high node-affinity clusters, §4.1): enumerate (intra_op, inter_op) for prefill
// and decode instances independently, estimate each configuration's goodput with the fast
// simulator, keep the per-GPU-goodput-optimal config for each phase, then replicate each
// phase to meet the target traffic rate. Valid when cross-node bandwidth is plentiful, since
// prefill and decode instances may land on different nodes.
//
// Algorithm 2 (low node-affinity clusters, §4.2): constrain corresponding pipeline stages of a
// prefill and a decode instance to share a node ("instance segments"), so KV transfers ride
// NVLink. Enumerate the inter-op degree, then all intra-node splits of the node's M GPUs
// between the prefill segment and the decode segment; evaluate each paired configuration as a
// unit and replicate the best pair.
//
// Search engine (this reproduction's extension; see DESIGN.md §10): candidate goodput
// simulations are pure, so both algorithms evaluate them on a thread pool while the winner
// fold runs on the calling thread in enumeration order — N-thread results are bit-identical
// to the serial search. The folds themselves (placement/search_context.h) are shared with the
// heterogeneous pool-pair search (placement/hetero.h); each planner here only enumerates.
// Probe traces are shared through a workload::TraceCache, per-config goodputs are memoized
// across invocations in a placement::GoodputCache (replanning re-searches only simulate
// configs whose inputs changed), and an analytic roofline upper bound prunes configs that
// provably cannot beat the incumbent.
//
// Tiered fidelity (this PR's extension; see DESIGN.md §15): tier 1 prices every candidate
// with a closed-form M/D/1 + Appendix-A estimate (placement/analytic_tier.h), batched
// through LatencyModel::EvaluateBatch; tier 2 — the full trace simulation — runs only for
// candidates the tier-1 bound cannot exclude. The tier boundary follows the roofline-prune
// contract: simulated rates are clamped to the tier-1 cap in *every* mode, so the cap is an
// upper bound on any simulated goodput by construction and skipping against it can never
// change the chosen plan (bit-identity tier-on vs tier-off is enforced by
// tiered_search_test and the CI determinism diff).
#ifndef DISTSERVE_PLACEMENT_ALGORITHMS_H_
#define DISTSERVE_PLACEMENT_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "metrics/collector.h"
#include "model/model_spec.h"
#include "placement/goodput.h"
#include "placement/goodput_cache.h"
#include "placement/placement.h"
#include "workload/dataset.h"

namespace distserve::placement {

// What the planner optimizes (consumed by the heterogeneous fleet search in
// placement/hetero.h; the homogeneous planners below are MaxGoodput by construction).
//
//   MaxGoodput — the paper's objective: maximize per-GPU goodput, replicate to the traffic
//                rate. Uses every pool it helps on.
//   MinGpus    — smallest total GPU count whose plan serves `traffic_rate` at the attainment
//                target (SLO-aware allocation; ties broken by cost, then by goodput).
//   MinCost    — cheapest $/hr fleet slice that serves `traffic_rate` at the attainment
//                target (ties broken by GPU count, then by goodput). With per-pool $/hr
//                prices this is the objective that routes each phase to the SKU it is
//                compute/bandwidth-matched to.
enum class PlannerObjective { kMaxGoodput, kMinGpus, kMinCost };

struct PlannerInputs {
  model::ModelSpec model;
  cluster::ClusterSpec cluster;
  const workload::Dataset* dataset = nullptr;
  metrics::SloSpec slo;
  double attainment_target = 0.9;

  // Target overall traffic rate R (requests/second) used for replication counts.
  double traffic_rate = 1.0;

  // Node limit per instance (the paper's N); 0 means the whole cluster.
  int max_nodes_per_instance = 0;

  // Decode batching cap.
  int decode_max_batch = 512;

  // Objective for the heterogeneous fleet search (placement/hetero.h). The homogeneous
  // planners ignore it — they implement the paper's MaxGoodput objective directly — so
  // setting it never perturbs existing plans.
  PlannerObjective objective = PlannerObjective::kMaxGoodput;

  // Safety derates applied to simulated phase goodputs before scoring and replication. The
  // decode-only simulator is optimistic: it sees smooth trace arrivals where the real decode
  // instance sees bursty prefill-completion clumps, and measured TPOT rides the SLO edge at
  // saturation. The prefill simulator is near-exact (M/D/1-validated), so its derate is mild.
  double prefill_goodput_derate = 0.95;
  double decode_goodput_derate = 0.80;

  GoodputSearchOptions search;

  // --- Search-engine knobs (results are identical for any setting of these) ---

  // Threads evaluating candidate simulations; 1 = serial. When `pool` is set its workers are
  // used (plus the calling thread) and num_threads is ignored; otherwise a temporary pool
  // with num_threads - 1 workers is created per invocation.
  int num_threads = 1;
  ThreadPool* pool = nullptr;  // non-owning

  // Persistent per-config goodput memo shared across invocations (non-owning; may be null).
  // With unchanged inputs a re-search answers every simulation from this cache.
  GoodputCache* goodput_cache = nullptr;

  // Skip simulating configs whose analytic roofline upper bound cannot beat the incumbent.
  // Simulated rates are clamped to the same roofline (finite-trial "unbounded rate" cap-outs
  // are an artifact no real deployment sustains), so the bound holds by construction and
  // pruning never changes the chosen plan; disable to force-simulate every candidate (e.g.
  // for candidate reports).
  bool prune_search_space = true;

  // Share probe traces across the invocation's rate searches through a workload::TraceCache
  // (the caller's inputs.search.trace_cache when set, else a per-invocation one). Cached
  // traces are bit-identical to fresh generation; off regenerates every probe trace — the
  // pre-engine behavior, kept for cost ablations (Figure 12).
  bool share_probe_traces = true;

  // Tier-1 analytic pre-filter (DESIGN.md §15). When on: (a) a config whose sanitized
  // analytic cap — margin * analytic estimate, clamped to the roofline bound — cannot beat
  // the live incumbent is skipped without simulating, and (b) surviving configs' rate
  // searches short-circuit once a passing probe reaches the cap (the cap-out exit,
  // goodput.h — exact because the result is clamped to the same cap). The cap clamps
  // simulated rates and seeds the probe's starting hint in BOTH modes, so this knob only
  // controls cost and the chosen plan is bit-identical either way; off force-simulates
  // everything the roofline prune keeps with the full probe walk (the pre-tier behavior,
  // kept as escape hatch and for the fig12 ablation).
  bool use_analytic_tier = true;

  // Multiplier lifting the (structurally optimistic but uncalibrated) tier-1 estimate to a
  // trustworthy upper bound before the roofline clamp. Two calibration constraints pin the
  // default at kRooflineSlack = 1.5. Upper: margin * estimate should undercut
  // kRooflineSlack * roofline somewhere, or the cap degenerates to the roofline and the
  // tier skips nothing. Lower: the cap must stay above every raw simulated rate that is NOT
  // a roofline cap-out — across the calibration battery the prefill simulator never exceeds
  // 0.83x its analytic estimate (1.8x headroom at 1.5), while decode sims always cap out,
  // and at 1.5 the decode cap coincides exactly with the PR-1 roofline clamp (the decode
  // analytic estimate equals the un-slacked roofline when the TPOT SLO is slack), so
  // recorded goodputs match the pre-tier search bit for bit. Raising the margin only
  // forfeits skips; it can never corrupt the plan relative to tier-off, because both modes
  // share the clamp (tiered_search_test pins plans at the default against margin = 1e300).
  // Part of the goodput-cache value key, so cached entries computed under a different
  // margin are never reused.
  double analytic_optimism_margin = 1.5;
};

// One evaluated candidate (kept for reporting / Figure 12 cost accounting).
struct CandidateResult {
  model::ParallelismConfig par;
  double goodput = 0.0;       // per instance (or per pair for Algorithm 2)
  double per_gpu = 0.0;
  int pair_prefill_tp = 0;    // Algorithm 2 only
  int pair_decode_tp = 0;     // Algorithm 2 only
};

struct PlannerResult {
  PlacementPlan plan;
  // Candidates that were actually simulated. Skipped configs do not appear here — their
  // counts (and why they were skipped) are in the accounting fields below.
  std::vector<CandidateResult> prefill_candidates;
  std::vector<CandidateResult> decode_candidates;
  std::vector<CandidateResult> pair_candidates;  // Algorithm 2

  // Search-cost accounting. configs_evaluated counts feasible phase configurations the
  // enumeration considered; each was either simulated (simulations_run, of which cache_hits
  // were answered by the goodput cache without simulating) or skipped. The invariant
  //   configs_evaluated == simulations_run + simulations_skipped
  // always holds, and simulations_skipped breaks down exactly as
  //   simulations_skipped == roofline_pruned + analytic_rejected + pair_unneeded.
  int configs_evaluated = 0;
  int simulations_run = 0;
  int simulations_skipped = 0;
  int cache_hits = 0;

  // Why each skipped config was skipped (Algorithm 1 attributes per phase config; Algorithm
  // 2 prunes at pair granularity, so its unforced phase configs all land in pair_unneeded
  // and the pair-level attribution lives in the pairs_* fields below).
  int roofline_pruned = 0;    // the PR-1 roofline bound alone cannot beat the incumbent
  int analytic_rejected = 0;  // survived the roofline bound, excluded by the tier-1 cap
  int pair_unneeded = 0;      // Algorithm 2: feasible phase config no surviving pair forced

  // Algorithm 2 pair-fold attribution (units are candidate pairs, not phase configs).
  int pairs_considered = 0;
  int pairs_pruned_roofline = 0;
  int pairs_pruned_analytic = 0;

  // Tier-2 cost actually paid: FindMaxRate attainment probes summed over the simulations
  // that ran (cache hits contribute zero), and how many of those probes reused a cached
  // trace. The speedup story of the tiered search is visible right here: tier-on runs fewer
  // simulations and therefore fewer probes for the same plan.
  int64_t probes = 0;
  int64_t trace_cache_hits = 0;
};

PlannerResult HighNodeAffinityPlacement(const PlannerInputs& inputs);
PlannerResult LowNodeAffinityPlacement(const PlannerInputs& inputs);

}  // namespace distserve::placement

#endif  // DISTSERVE_PLACEMENT_ALGORITHMS_H_
