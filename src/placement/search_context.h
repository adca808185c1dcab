// Shared internals of the goodput searches: the per-invocation SearchContext, the memo of
// phase simulations built on it, and the two placement folds — the per-phase fold of
// Algorithm 1 (§4.1) and the instance-segment pair fold of Algorithm 2 (§4.2). The
// homogeneous planners (placement/algorithms.h) and the heterogeneous pool-pair search
// (placement/hetero.h) all run these same folds; each caller keeps only its enumeration.
//
// Everything here is a pure function of a single PlannerInputs — in particular of its
// `cluster` field, so pointing `inputs.cluster` at one pool of a heterogeneous fleet
// (HeteroClusterSpec::PoolCluster) prices that pool with its own Appendix-A coefficients
// through the exact same code path the homogeneous planners use. The detail namespace marks
// this as an internal seam: semantics (clamping, key construction, prune bounds) are
// documented here but pinned by the planner-level tests.
#ifndef DISTSERVE_PLACEMENT_SEARCH_CONTEXT_H_
#define DISTSERVE_PLACEMENT_SEARCH_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "placement/algorithms.h"
#include "workload/dataset.h"
#include "workload/trace_cache.h"

namespace distserve::placement::detail {

bool ConfigFeasible(const PlannerInputs& inputs, const model::ParallelismConfig& par);

// Algorithm 1's phase configurations: every feasible (intra, inter) an instance spanning at
// most `max_nodes` nodes can take, intra-major.
std::vector<model::ParallelismConfig> PhaseConfigs(const PlannerInputs& inputs, int max_nodes);

int ReplicaCount(double traffic_rate, double goodput);

// "Infinitely many" GPUs: what NeededGpus reports for a config that cannot serve at all.
inline constexpr int64_t kInfGpus = INT64_MAX / 4;

// GPUs a phase needs to serve `rate` with instances of `gpus` GPUs each: replicas x instance
// GPUs, or kInfGpus when the goodput is zero. Applied to a goodput *bound* it is a valid
// lower bound on the GPUs any clamped simulation result can need, which is what the
// MinGpus/MinCost prunes rely on.
int64_t NeededGpus(double rate, double goodput, int gpus);

// Smallest feasible configuration (fewest GPUs, then lowest tp) for fallback plans when no
// candidate meets the attainment target: the plan still has to be constructible.
model::ParallelismConfig SmallestFeasible(const PlannerInputs& inputs, int max_nodes);

// Result of one speculative phase-simulation task.
struct PhaseSim {
  double goodput = 0.0;  // derated
  double rate = 0.0;     // clamped, un-derated: the rate hint a simulation leaves behind
  bool cache_hit = false;
  GoodputSearchStats stats;  // zero for cache hits: no probes were paid
};

// Shared machinery for one planner invocation: the (possibly owned) thread pool, the
// (possibly owned) probe-trace cache, the goodput-cache key prefixes, and the analytic
// upper-bound roofline used for pruning.
class SearchContext {
 public:
  explicit SearchContext(const PlannerInputs& inputs);

  const PlannerInputs& inputs() const { return inputs_; }
  ThreadPool* pool() const { return pool_; }

  // Simulates (or recalls) one phase config's derated goodput. Thread-safe and deterministic:
  // it only reads the goodput cache, and every task in a planner run has a distinct cache
  // key, so hit/miss outcomes depend only on the cache's state at entry, not on evaluation
  // order. The tier-1 cap clamps the result, seeds a cold probe's hint and ends the probe
  // walk early (the exact cap-out exit), which is why skipping against it cannot change the
  // plan.
  PhaseSim SimulatePhase(const model::ParallelismConfig& par, bool is_prefill) const;

  // Counts the key's goodput-cache lookup and stores a simulated (not recalled) result's
  // goodput and rate hint. Called once per key a fold forces, on the calling thread, so the
  // cache never holds a speculated result no fold used, and neither its contents nor its
  // hit/miss counters depend on the thread count.
  void Remember(const model::ParallelismConfig& par, bool is_prefill, const PhaseSim& sim) const;

  // Upper bounds on the phase's derated goodput, one per tier. tier_goodput is the same cap
  // SimulatePhase clamps results to, so no simulated candidate can exceed it;
  // roofline_goodput (>= tier_goodput) is the PR-1 bound alone, kept separate so skips can
  // be attributed to the tier that produced them. Used to prune configs that provably cannot
  // beat the incumbent.
  struct PhaseBounds {
    double roofline_goodput = 0.0;
    double tier_goodput = 0.0;
  };

  PhaseBounds GoodputUpperBounds(const model::ParallelismConfig& par, bool is_prefill) const;

 private:
  // The per-config rate caps shared by the prune bound, the result clamp, and the probe
  // hint. Pure function of (inputs, par, phase): recomputing it on a pool worker and on the
  // fold thread yields the same values, which is what keeps skip decisions sound against
  // the clamp actually applied.
  struct PhaseCaps {
    double roofline_rate = 0.0;  // kRooflineSlack * RateUpperBound (the roofline prune bound)
    double analytic_rate = 0.0;  // raw tier-1 estimate; 0 = no feasible operating point
    double capped_rate = 0.0;    // SanitizedAnalyticCap(analytic, margin, roofline)
  };

  PhaseCaps Caps(const model::ParallelismConfig& par, bool is_prefill) const;

  static std::string ConfigSuffix(const model::ParallelismConfig& par, bool is_prefill);

  void BuildKeyPrefixes();

  const PlannerInputs& inputs_;
  GoodputSearchOptions search_;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<workload::TraceCache> owned_trace_cache_;
  workload::LengthSample mean_;
  std::string value_prefix_;
  std::string hint_prefix_;
};

// What simulating a memo's keys cost, counted once per distinct key on its first Force (in
// fold order, so every field but trace_cache_hits is independent of the thread count).
struct SimulationCost {
  int keys_visited = 0;  // distinct keys some fold enumerated
  int simulations_run = 0;
  int cache_hits = 0;
  int64_t probes = 0;
  int64_t trace_cache_hits = 0;
};

// The phase simulations of one SearchContext, keyed by (phase, par) over a config list:
// one SpeculativeTaskSet task per key, speculated on the context's pool, plus each key's
// GoodputUpperBounds (computed on first use). Every fold over the memo shares it, so a key is
// simulated at most once however many folds need it. Only the calling thread touches the
// memo and writes the goodput cache; pool workers only run its tasks.
class PhaseMemo {
 public:
  // Keys are prefill(configs[0..n)) then decode(configs[0..n)).
  PhaseMemo(const SearchContext& ctx, std::vector<model::ParallelismConfig> configs);

  const PlannerInputs& inputs() const { return ctx_.inputs(); }
  const std::vector<model::ParallelismConfig>& configs() const { return configs_; }
  size_t size() const { return sims_.size(); }
  size_t Key(bool is_prefill, size_t config) const {
    return is_prefill ? config : configs_.size() + config;
  }
  // Key of (phase, par), or nullopt when par is not one of the memo's configs.
  std::optional<size_t> Find(bool is_prefill, const model::ParallelismConfig& par) const;

  const SearchContext::PhaseBounds& Bounds(size_t key);
  // Records that a fold enumerated `key` (SimulationCost::keys_visited).
  void Visit(size_t key);
  // The key's derated goodput, simulating it now unless a worker already did; the first
  // Force of a key Remembers it.
  double Force(size_t key);
  // A fold pruned `key`: workers stop speculating on it (a later fold may still Force it).
  void Skip(size_t key) { sims_.Cancel(key); }

  const SimulationCost& cost() const { return cost_; }

 private:
  const SearchContext& ctx_;
  std::vector<model::ParallelismConfig> configs_;
  std::vector<std::optional<SearchContext::PhaseBounds>> bounds_;
  std::vector<char> visited_;
  std::vector<char> forced_;
  SimulationCost cost_;
  SpeculativeTaskSet<PhaseSim> sims_;  // last: destroyed first, so no task outlives the rest
};

// Winner of one fold, plus what the fold's prunes skipped.
struct FoldResult {
  bool found = false;                 // some candidate was accepted
  CandidateResult best;               // phase fold: par; pair fold: {0, inter} + pair tps
  int best_gpus = 0;                  // GPUs of one instance (pair) of the winner
  std::vector<CandidateResult> kept;  // every simulated candidate, in enumeration order
  int pruned_roofline = 0;            // the roofline bound alone could not beat the incumbent
  int pruned_tier = 0;                // survived the roofline bound, excluded by the tier cap
};

// How a fold ranks candidates. kMaxGoodput ranks per-GPU goodput with the near-tie
// preference for smaller instances (Algorithms 1 and 2). kMinGpus ranks the GPUs that
// replication to inputs.traffic_rate needs, within `capacity` GPUs, ties to the higher
// goodput; kMinCost shares it, since within one pool cost is GPUs x a constant price.
struct FoldObjective {
  PlannerObjective objective = PlannerObjective::kMaxGoodput;
  int64_t capacity = kInfGpus;  // kMinGpus/kMinCost only
};

// Algorithm 1's fold over one phase of every memo config, in config order. Runs on the
// calling thread: every prune, keep and select happens in enumeration order, so the result
// is bit-identical at any thread count. Prunes (when inputs.prune_search_space) are two-tier
// against the live incumbent: skipping is sound because SimulatePhase clamps every result to
// tier_goodput <= roofline_goodput and both rankings are monotone in the goodput.
FoldResult FoldPhase(PhaseMemo& memo, bool is_prefill, const FoldObjective& objective);

// One Algorithm-2 instance segment pair: corresponding pipeline stages of a prefill instance
// (tp_p GPUs) and a decode instance (tp_d GPUs) share each of `inter` nodes.
struct SegmentPair {
  int inter = 1;
  int tp_p = 1;
  int tp_d = 1;
  size_t prefill_key = 0;
  size_t decode_key = 0;
  int gpus() const { return inter * (tp_p + tp_d); }
};

// Every pair of memo configs with inter <= max_inter and tp_p + tp_d <= gpus_per_node,
// in (inter, tp_p, tp_d) order.
std::vector<SegmentPair> SegmentPairs(const PhaseMemo& memo, int max_inter);

// Algorithm 2's fold over `pairs` in order. A pair serves at its weaker phase's rate, so its
// goodput — and each prune bound — is the min over its two phases; pairs with a zero-goodput
// phase are neither kept nor ranked. Same determinism and soundness as FoldPhase.
FoldResult FoldPairs(PhaseMemo& memo, const std::vector<SegmentPair>& pairs,
                     const FoldObjective& objective);

}  // namespace distserve::placement::detail

#endif  // DISTSERVE_PLACEMENT_SEARCH_CONTEXT_H_
