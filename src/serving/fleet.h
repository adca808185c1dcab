// Fleet-scale serving: many independent instance groups behind one router, simulated on a
// sharded event core (DESIGN.md §17).
//
// A fleet is `num_groups` replicas of a serving configuration — disaggregated
// (serving::ServingSystem) or colocated (baselines::VllmSystem) — each constructed on one
// shard of a simcore::ShardedSimulator (group g lives on shard g % num_shards). A centralized
// router on shard 0 receives every arrival and dispatches it to the serviceable group with the
// fewest outstanding requests (ties to the lowest group index), modeling the cluster-level
// load balancer in front of the paper's per-group controllers. Dispatch and completion
// notifications cross shards as Post()ed messages with latencies dispatch_latency and
// notify_latency; the lookahead is their minimum, so the router's view of group load is
// naturally one message latency stale — exactly as a real control plane's would be.
//
// Determinism: every cross-group interaction goes through the sharded core's canonical
// (when, sender, seq) merge, senders are registered in a fixed order (router, then groups by
// index), and per-group results are merged in group index order then re-sorted by request id.
// FleetResult is therefore bit-identical at any shard or worker-thread count; only
// FleetResult::sim_stats (event/message placement) depends on the shard count.
#ifndef DISTSERVE_SERVING_FLEET_H_
#define DISTSERVE_SERVING_FLEET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "baselines/vllm_system.h"
#include "common/thread_pool.h"
#include "metrics/collector.h"
#include "serving/fault_plan.h"
#include "serving/serving_system.h"
#include "simcore/sharded_simulator.h"
#include "workload/request.h"

namespace distserve::serving {

struct FleetConfig {
  // Number of instance-group replicas. Each group is an independent copy of the template
  // below with its own controller, instances and KV pools.
  int num_groups = 1;

  // Group flavor: false runs ServingSystem replicas from `group_config`; true runs
  // VllmSystem replicas from `colocated_config`.
  bool colocated = false;

  // Per-group template for disaggregated fleets. Its `sim`, `faults` and `recorder` fields
  // are overridden per group (from the sharded core and the two vectors below).
  ServingConfig group_config;

  // Per-group template for colocated fleets; `sim` and `recorder` are overridden per group.
  baselines::VllmConfig colocated_config;

  // Optional per-group fault plans (disaggregated fleets only); empty or size num_groups.
  std::vector<FaultPlan> group_faults;

  // Optional per-group span recorders; empty or size num_groups. Per-group recorders keep
  // tracing race-free when shards run on a thread pool.
  std::vector<trace::Recorder*> group_recorders;

  // Control-plane latencies in virtual seconds; both must be positive. The sharded core's
  // lookahead is min(dispatch_latency, notify_latency).
  double dispatch_latency = 1e-3;  // router -> group admission
  double notify_latency = 1e-3;    // group -> router completion/fault notification

  // Sharding knobs, forwarded to simcore::ShardedSimulator::Options.
  int shards = 1;
  ThreadPool* pool = nullptr;
  size_t channel_capacity = 1024;
};

struct FleetResult {
  // Merged per-request records across all groups, sorted by request id; router-parked
  // requests (no serviceable group, never recovered) appear as lost.
  metrics::Collector collector;
  int64_t events = 0;              // total simulator events across shards
  int64_t router_parked_lost = 0;  // requests the router never found a serviceable group for
  std::vector<int64_t> group_completed;  // completed request count per group
  simcore::ShardedSimulator::Stats sim_stats;
};

class FleetSystem {
 public:
  explicit FleetSystem(FleetConfig config);
  FleetSystem(const FleetSystem&) = delete;
  FleetSystem& operator=(const FleetSystem&) = delete;
  ~FleetSystem();

  // Routes and runs the trace to completion. Like a ServingSystem, a fleet runs once: a
  // second Run aborts. Arrival times are the router's receive times; each request's TTFT includes
  // the dispatch hop it then takes.
  FleetResult Run(const workload::Trace& trace);

  // KV blocks held across every group's instances (prefill, decode and colocated pools).
  // Zero after a run: whatever each request's fate, its KV was released.
  int64_t used_kv_blocks() const;

  int num_shards() const { return sharded_.num_shards(); }
  const simcore::ShardedSimulator& sharded() const { return sharded_; }

 private:
  struct Group;
  // Tests drive the router with one ScheduleAt per arrival (the schedule Run() streams
  // instead) and check that the results stay bit-identical.
  friend class FleetSystemTestPeer;

  // Run() is BeginGroups, the arrivals streamed into the router's shard, then FaultAndRun:
  // the group fault plans are scheduled after the arrivals, the sharded core runs to
  // completion and the per-group results are merged.
  void BeginGroups(size_t trace_size);
  FleetResult FaultAndRun();

  // Router logic; every method below runs inside shard-0 events.
  void RouteArrival(const workload::Request& req);
  void DispatchTo(int g, const workload::Request& req);
  void OnGroupNotify(int g);
  void FlushRouterParked();

  FleetConfig config_;
  simcore::ShardedSimulator sharded_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<int> group_shard_;
  std::vector<int> group_sender_;
  int router_sender_ = -1;
  bool started_ = false;  // BeginGroups was called (a fleet runs once)

  // Router state (shard 0 only): in-flight request count and last known serviceability per
  // group, plus arrivals parked when no group is serviceable.
  std::vector<int64_t> outstanding_;
  std::vector<bool> serviceable_;
  std::deque<workload::Request> router_parked_;
};

}  // namespace distserve::serving

#endif  // DISTSERVE_SERVING_FLEET_H_
