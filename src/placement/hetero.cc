#include "placement/hetero.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "placement/search_context.h"

namespace distserve::placement {
namespace {

using detail::FoldObjective;
using detail::FoldResult;
using detail::kInfGpus;
using detail::NeededGpus;
using detail::PhaseMemo;
using detail::ReplicaCount;
using detail::SearchContext;
using detail::SmallestFeasible;

class HeteroSearch {
 public:
  HeteroSearch(const PlannerInputs& base, const cluster::HeteroClusterSpec& fleet,
               HeteroPlannerResult* out)
      : base_(base), fleet_(fleet), out_(out) {
    DS_CHECK(!fleet.pools.empty());
    // One thread pool speculates for every pool's memo (per-pool contexts would otherwise
    // each spawn their own).
    ThreadPool* pool = base.pool;
    if (pool == nullptr && base.num_threads > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(base.num_threads - 1);
      pool = owned_pool_.get();
    }
    // Each pool's memo holds its Algorithm-1 config set for both phases, which contains
    // every instance-segment config too, so the cross-pool phase folds and the colocated
    // pair fold share one simulation per (pool, phase, par).
    const size_t n = fleet.pools.size();
    for (size_t i = 0; i < n; ++i) {
      const int nodes = InstanceNodes(static_cast<int>(i));
      auto inputs = std::make_unique<PlannerInputs>(base);
      inputs->cluster = fleet.PoolCluster(i);
      inputs->pool = pool;
      ctx_.push_back(std::make_unique<SearchContext>(*inputs));
      memos_.push_back(
          std::make_unique<PhaseMemo>(*ctx_.back(), detail::PhaseConfigs(*inputs, nodes)));
      pairs_.push_back(
          detail::SegmentPairs(*memos_.back(), std::min(nodes, base.model.num_layers)));
      pool_inputs_.push_back(std::move(inputs));
    }
    phase_picks_.resize(2 * n);
    colocated_picks_.resize(n);
    phase_lbs_.assign(2 * n, -1);
    colocated_lbs_.assign(n, -1);
  }

  void Run() {
    const int n = static_cast<int>(fleet_.pools.size());
    bool have = false;
    PoolAssignment chosen;
    for (int p = 0; p < n; ++p) {
      for (int d = 0; d < n; ++d) {
        ++out_->pairs_considered;
        // Pair-level cost prune, MinGpus/MinCost only: the roofline lower bound on this
        // pair's metric cannot beat a feasible incumbent. Strict comparison keeps it sound
        // against ties.
        if (base_.objective != PlannerObjective::kMaxGoodput && have && chosen.feasible &&
            base_.prune_search_space) {
          if (base_.objective == PlannerObjective::kMinGpus) {
            if (PairGpusLb(p, d) > chosen.total_gpus()) {
              ++out_->pairs_cost_pruned;
              continue;
            }
          } else if (PairCostLb(p, d) > chosen.cost_per_hour) {
            ++out_->pairs_cost_pruned;
            continue;
          }
        }
        const PoolAssignment a = p == d ? MakeColocated(p) : MakeCross(p, d);
        out_->candidates.push_back(a);
        if (!have || Better(a, chosen)) {
          chosen = a;
          have = true;
        }
      }
    }
    out_->chosen = chosen;
    for (const auto& memo : memos_) {
      const detail::SimulationCost& cost = memo->cost();
      out_->configs_evaluated += cost.keys_visited;
      out_->simulations_run += cost.simulations_run;
      out_->cache_hits += cost.cache_hits;
      out_->probes += cost.probes;
      out_->trace_cache_hits += cost.trace_cache_hits;
    }
    out_->simulations_skipped = out_->configs_evaluated - out_->simulations_run;
  }

 private:
  double Price(int pool) const { return fleet_.pools[static_cast<size_t>(pool)].gpu.hourly_cost_usd; }

  int64_t Capacity(int pool) const {
    return fleet_.pools[static_cast<size_t>(pool)].total_gpus();
  }

  int InstanceNodes(int pool) const {
    const int pool_nodes = fleet_.pools[static_cast<size_t>(pool)].num_nodes;
    return base_.max_nodes_per_instance > 0 ? std::min(base_.max_nodes_per_instance, pool_nodes)
                                            : pool_nodes;
  }

  FoldObjective Objective(int pool) const { return {base_.objective, Capacity(pool)}; }

  void AddPrunes(const FoldResult& fold) {
    out_->configs_pruned_roofline += fold.pruned_roofline;
    out_->configs_pruned_tier += fold.pruned_tier;
  }

  // GPUs the fold's winner needs once replicated to the traffic rate.
  int64_t TotalGpus(const FoldResult& fold) const {
    return static_cast<int64_t>(ReplicaCount(base_.traffic_rate, fold.best.goodput)) *
           fold.best_gpus;
  }

  // Winner of the (pool, phase) fold under the active objective.
  const FoldResult& PhasePickFor(int pool, bool is_prefill) {
    auto& slot = phase_picks_[static_cast<size_t>(pool) * 2 + (is_prefill ? 0 : 1)];
    if (!slot.has_value()) {
      slot = detail::FoldPhase(*memos_[static_cast<size_t>(pool)], is_prefill, Objective(pool));
      AddPrunes(*slot);
    }
    return *slot;
  }

  // Winner of one pool's colocated (Algorithm-2 instance-segment) pair fold. For MaxGoodput
  // this is LowNodeAffinityPlacement's fold over the same pairs, which is what makes a
  // single-pool fleet reduce to the homogeneous planner.
  const FoldResult& ColocatedPickFor(int pool) {
    auto& slot = colocated_picks_[static_cast<size_t>(pool)];
    if (!slot.has_value()) {
      slot = detail::FoldPairs(*memos_[static_cast<size_t>(pool)],
                               pairs_[static_cast<size_t>(pool)], Objective(pool));
      AddPrunes(*slot);
    }
    return *slot;
  }

  PoolAssignment MakeCross(int p, int d) {
    const FoldResult& pp = PhasePickFor(p, /*is_prefill=*/true);
    const FoldResult& dp = PhasePickFor(d, /*is_prefill=*/false);
    PoolAssignment a;
    a.prefill_pool = p;
    a.decode_pool = d;
    a.prefill_pool_name = fleet_.pools[static_cast<size_t>(p)].name;
    a.decode_pool_name = fleet_.pools[static_cast<size_t>(d)].name;
    a.colocated = false;
    a.plan.intra_node_transfers = false;
    if (pp.found) {
      a.plan.prefill_par = pp.best.par;
      a.plan.num_prefill = ReplicaCount(base_.traffic_rate, pp.best.goodput);
      a.plan.prefill_goodput = pp.best.goodput;
    } else {
      a.plan.prefill_par = SmallestFeasible(*pool_inputs_[static_cast<size_t>(p)], InstanceNodes(p));
      a.plan.num_prefill = 1;
    }
    if (dp.found) {
      a.plan.decode_par = dp.best.par;
      a.plan.num_decode = ReplicaCount(base_.traffic_rate, dp.best.goodput);
      a.plan.decode_goodput = dp.best.goodput;
    } else {
      a.plan.decode_par = SmallestFeasible(*pool_inputs_[static_cast<size_t>(d)], InstanceNodes(d));
      a.plan.num_decode = 1;
    }
    a.system_goodput = a.plan.system_goodput();
    a.cost_per_hour =
        a.plan.num_prefill * a.plan.prefill_par.num_gpus() * Price(p) +
        a.plan.num_decode * a.plan.decode_par.num_gpus() * Price(d);
    a.feasible = pp.found && dp.found && TotalGpus(pp) <= Capacity(p) &&
                 TotalGpus(dp) <= Capacity(d);
    return a;
  }

  PoolAssignment MakeColocated(int pool) {
    const FoldResult& pick = ColocatedPickFor(pool);
    PoolAssignment a;
    a.prefill_pool = pool;
    a.decode_pool = pool;
    a.prefill_pool_name = fleet_.pools[static_cast<size_t>(pool)].name;
    a.decode_pool_name = a.prefill_pool_name;
    a.colocated = true;
    a.plan.intra_node_transfers = true;
    if (pick.found) {
      const int replicas = ReplicaCount(base_.traffic_rate, pick.best.goodput);
      a.plan.prefill_par = model::ParallelismConfig{pick.best.pair_prefill_tp, pick.best.par.pp};
      a.plan.decode_par = model::ParallelismConfig{pick.best.pair_decode_tp, pick.best.par.pp};
      a.plan.num_prefill = replicas;
      a.plan.num_decode = replicas;
      a.plan.prefill_goodput = pick.best.goodput;
      a.plan.decode_goodput = pick.best.goodput;
    } else {
      const model::ParallelismConfig fallback =
          SmallestFeasible(*pool_inputs_[static_cast<size_t>(pool)], InstanceNodes(pool));
      a.plan.prefill_par = fallback;
      a.plan.decode_par = fallback;
    }
    a.system_goodput = a.plan.system_goodput();
    a.cost_per_hour = a.plan.total_gpus() * Price(pool);
    a.feasible = pick.found && TotalGpus(pick) <= Capacity(pool);
    return a;
  }

  // Roofline-only lower bound on the GPUs a phase can need in `pool`.
  int64_t PhaseGpusLb(int pool, bool is_prefill) {
    int64_t& slot = phase_lbs_[static_cast<size_t>(pool) * 2 + (is_prefill ? 0 : 1)];
    if (slot < 0) {
      PhaseMemo& memo = *memos_[static_cast<size_t>(pool)];
      slot = kInfGpus;
      for (size_t i = 0; i < memo.configs().size(); ++i) {
        slot = std::min(slot, NeededGpus(base_.traffic_rate,
                                         memo.Bounds(memo.Key(is_prefill, i)).roofline_goodput,
                                         memo.configs()[i].num_gpus()));
      }
    }
    return slot;
  }

  int64_t ColocatedGpusLb(int pool) {
    int64_t& slot = colocated_lbs_[static_cast<size_t>(pool)];
    if (slot < 0) {
      PhaseMemo& memo = *memos_[static_cast<size_t>(pool)];
      slot = kInfGpus;
      for (const detail::SegmentPair& pair : pairs_[static_cast<size_t>(pool)]) {
        const double bound = std::min(memo.Bounds(pair.prefill_key).roofline_goodput,
                                      memo.Bounds(pair.decode_key).roofline_goodput);
        slot = std::min(slot, NeededGpus(base_.traffic_rate, bound, pair.gpus()));
      }
    }
    return slot;
  }

  int64_t PairGpusLb(int p, int d) {
    if (p == d) {
      return ColocatedGpusLb(p);
    }
    const int64_t lb_p = PhaseGpusLb(p, true);
    const int64_t lb_d = PhaseGpusLb(d, false);
    return lb_p == kInfGpus || lb_d == kInfGpus ? kInfGpus : lb_p + lb_d;
  }

  double PairCostLb(int p, int d) {
    if (p == d) {
      return static_cast<double>(ColocatedGpusLb(p)) * Price(p);
    }
    return static_cast<double>(PhaseGpusLb(p, true)) * Price(p) +
           static_cast<double>(PhaseGpusLb(d, false)) * Price(d);
  }

  bool Better(const PoolAssignment& a, const PoolAssignment& b) const {
    if (base_.objective == PlannerObjective::kMaxGoodput) {
      return a.plan.per_gpu_goodput() > b.plan.per_gpu_goodput();
    }
    if (a.feasible != b.feasible) {
      return a.feasible;
    }
    if (!a.feasible) {
      // Nothing meets the target yet: carry the strongest plan so the caller always gets a
      // constructible fallback.
      return a.system_goodput > b.system_goodput;
    }
    if (base_.objective == PlannerObjective::kMinGpus) {
      if (a.total_gpus() != b.total_gpus()) {
        return a.total_gpus() < b.total_gpus();
      }
      if (a.cost_per_hour != b.cost_per_hour) {
        return a.cost_per_hour < b.cost_per_hour;
      }
    } else {
      if (a.cost_per_hour != b.cost_per_hour) {
        return a.cost_per_hour < b.cost_per_hour;
      }
      if (a.total_gpus() != b.total_gpus()) {
        return a.total_gpus() < b.total_gpus();
      }
    }
    return a.system_goodput > b.system_goodput;
  }

  const PlannerInputs& base_;
  const cluster::HeteroClusterSpec& fleet_;
  HeteroPlannerResult* out_;
  // Declaration order is destruction-safe: memos (whose tasks reference the contexts and
  // run on the pool) go first, the pool last.
  std::unique_ptr<ThreadPool> owned_pool_;
  std::vector<std::unique_ptr<PlannerInputs>> pool_inputs_;
  std::vector<std::unique_ptr<SearchContext>> ctx_;
  std::vector<std::unique_ptr<PhaseMemo>> memos_;           // [pool]
  std::vector<std::vector<detail::SegmentPair>> pairs_;     // [pool]
  std::vector<std::optional<FoldResult>> phase_picks_;      // [pool * 2 + phase]
  std::vector<std::optional<FoldResult>> colocated_picks_;  // [pool]
  std::vector<int64_t> phase_lbs_;                          // [pool * 2 + phase]; -1 = unset
  std::vector<int64_t> colocated_lbs_;                      // [pool]; -1 = unset
};

}  // namespace

HeteroPlannerResult HeterogeneousPlacement(const PlannerInputs& inputs,
                                           const cluster::HeteroClusterSpec& fleet) {
  HeteroPlannerResult result;
  result.objective = inputs.objective;
  HeteroSearch search(inputs, fleet, &result);
  search.Run();
  return result;
}

}  // namespace distserve::placement
