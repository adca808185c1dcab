// Sharded-simulation determinism (DESIGN.md §17): the conservative-lookahead core and the
// fleet built on it must be bit-identical to the sequential path at any shard or thread
// count, and late cross-shard messages must fail loudly.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "placement/sweep.h"
#include "scenario_trace.h"
#include "serving/fleet.h"
#include "simcore/sharded_simulator.h"
#include "trace/recorder.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::serving {

// Runs a fleet with one ScheduleAt per arrival on the router's shard, before the group fault
// plans: the arrival schedule FleetSystem::Run used before it streamed its trace.
class FleetSystemTestPeer {
 public:
  // Also checks that the run released every KV block.
  static FleetResult RunUpFront(FleetConfig config, const workload::Trace& trace) {
    FleetSystem fleet(std::move(config));
    fleet.BeginGroups(trace.size());
    for (const workload::Request& req : trace) {
      fleet.sharded_.shard(0)->ScheduleAt(req.arrival_time,
                                          [&fleet, req] { fleet.RouteArrival(req); });
    }
    FleetResult result = fleet.FaultAndRun();
    EXPECT_EQ(fleet.used_kv_blocks(), 0);
    return result;
  }
};

}  // namespace distserve::serving

namespace distserve {
namespace {

// --- Raw core: a ring of actors forwarding messages with latency >= lookahead. ---

constexpr double kLookahead = 0.01;

struct RingCtx {
  simcore::ShardedSimulator* sim = nullptr;
  std::vector<int> actor_shard;
  std::vector<int> senders;
  std::vector<std::vector<double>> log;  // per-actor receive times, the comparable output

  void Arrive(int actor, int hops) {
    simcore::Simulator* local = sim->shard(actor_shard[static_cast<size_t>(actor)]);
    log[static_cast<size_t>(actor)].push_back(local->now());
    if (hops <= 0) {
      return;
    }
    const int next = (actor + 3) % static_cast<int>(senders.size());
    const double latency = kLookahead * static_cast<double>(1 + actor % 3);
    sim->Post(senders[static_cast<size_t>(actor)], actor_shard[static_cast<size_t>(next)],
              local->now() + latency, [this, next, hops] { Arrive(next, hops - 1); });
  }
};

std::vector<std::vector<double>> RunRing(int num_shards, ThreadPool* pool) {
  constexpr int kActors = 8;
  constexpr int kHops = 40;
  simcore::ShardedSimulator::Options options;
  options.num_shards = num_shards;
  options.lookahead = kLookahead;
  options.pool = pool;
  simcore::ShardedSimulator sim(options);
  RingCtx ctx;
  ctx.sim = &sim;
  ctx.log.resize(kActors);
  for (int a = 0; a < kActors; ++a) {
    ctx.actor_shard.push_back(a % sim.num_shards());
    ctx.senders.push_back(sim.AddSender(ctx.actor_shard.back()));
  }
  for (int a = 0; a < kActors; ++a) {
    sim.shard(ctx.actor_shard[static_cast<size_t>(a)])
        ->ScheduleAt(0.001 * static_cast<double>(a), [ctx_ptr = &ctx, a] {
          ctx_ptr->Arrive(a, kHops);
        });
  }
  const int64_t events = sim.Run();
  EXPECT_GT(events, 0);
  // Per-shard stats are consistent with the totals.
  int64_t shard_events = 0;
  for (const auto& s : sim.stats().shards) {
    shard_events += s.events;
  }
  EXPECT_EQ(shard_events, events);
  EXPECT_GT(sim.stats().sync_rounds, 0);
  return ctx.log;
}

TEST(ShardedSimulatorTest, RingBitIdenticalAcrossShardCounts) {
  const auto baseline = RunRing(1, nullptr);
  EXPECT_EQ(RunRing(2, nullptr), baseline);
  EXPECT_EQ(RunRing(8, nullptr), baseline);
}

TEST(ShardedSimulatorTest, RingBitIdenticalWithThreadPool) {
  const auto baseline = RunRing(1, nullptr);
  ThreadPool pool(3);
  EXPECT_EQ(RunRing(4, &pool), baseline);
  EXPECT_EQ(RunRing(8, &pool), baseline);
}

// --- Burst: every actor posts hundreds of messages in one window, all actors at the same
// times, so several shards fill their outboxes in the same window and equal-time messages
// from different senders meet at every destination. ---

struct BurstRun {
  std::vector<std::vector<std::pair<double, int>>> log;  // per actor: (time, payload)
  int64_t messages = 0;
  int64_t sync_rounds = 0;
};

BurstRun RunBurst(int num_shards, ThreadPool* pool) {
  constexpr int kActors = 8;
  constexpr int kBurst = 300;  // messages per actor per burst
  constexpr int kRounds = 3;
  simcore::ShardedSimulator::Options options;
  options.num_shards = num_shards;
  options.lookahead = kLookahead;
  options.pool = pool;
  simcore::ShardedSimulator sim(options);
  std::vector<int> actor_shard;
  std::vector<int> senders;
  for (int a = 0; a < kActors; ++a) {
    actor_shard.push_back(a % sim.num_shards());
    senders.push_back(sim.AddSender(actor_shard.back()));
  }
  BurstRun run;
  run.log.resize(kActors);
  for (int round = 0; round < kRounds; ++round) {
    for (int a = 0; a < kActors; ++a) {
      simcore::Simulator* local = sim.shard(actor_shard[static_cast<size_t>(a)]);
      local->ScheduleAt(0.05 * static_cast<double>(round), [&, local, a] {
        for (int k = 0; k < kBurst; ++k) {
          // Every sender's k-th message goes to the same actor at the same time, so the
          // senders' equal (when, seq) keys there are ordered by sender id alone.
          const int to = k % kActors;
          simcore::Simulator* dst = sim.shard(actor_shard[static_cast<size_t>(to)]);
          const double when =
              local->now() + kLookahead * static_cast<double>(1 + (k / kActors) % 4);
          sim.Post(senders[static_cast<size_t>(a)], actor_shard[static_cast<size_t>(to)], when,
                   [&run, dst, to, payload = a * kBurst + k] {
                     run.log[static_cast<size_t>(to)].emplace_back(dst->now(), payload);
                   });
        }
      });
    }
  }
  sim.Run();
  EXPECT_EQ(sim.stats().messages, int64_t{kActors} * kBurst * kRounds);
  run.messages = sim.stats().messages;
  run.sync_rounds = sim.stats().sync_rounds;
  return run;
}

TEST(ShardedSimulatorTest, BurstBitIdenticalAcrossShardCountsAndPools) {
  const BurstRun baseline = RunBurst(1, nullptr);
  ThreadPool pool(3);
  for (const int shards : {2, 8}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, pool " << (p != nullptr));
      const BurstRun run = RunBurst(shards, p);
      EXPECT_EQ(run.log, baseline.log);
      EXPECT_EQ(run.messages, baseline.messages);
      EXPECT_EQ(run.sync_rounds, baseline.sync_rounds);
    }
  }
}

TEST(ShardedSimulatorDeathTest, LateCrossShardMessageFailsLoudly) {
  auto violate = [] {
    simcore::ShardedSimulator::Options options;
    options.num_shards = 2;
    options.lookahead = 0.01;
    simcore::ShardedSimulator sim(options);
    const int sender = sim.AddSender(0);
    sim.shard(0)->ScheduleAt(1.0, [&sim, sender] {
      // Half a lookahead out: too soon, must abort rather than silently reorder.
      sim.Post(sender, 1, sim.shard(0)->now() + 0.005, [] {});
    });
    sim.Run();
  };
  EXPECT_DEATH(violate(), "lookahead violation");
}

// --- Fleet bit-identity across shard counts: disaggregated, colocated, faulted. ---

workload::Trace FleetTrace(int n, double rate, uint64_t seed = 7) {
  workload::FixedDataset dataset(128, 16);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

serving::FleetConfig DisaggFleet(int groups, int shards) {
  serving::FleetConfig fc;
  fc.num_groups = groups;
  fc.shards = shards;
  fc.group_config.model = model::ModelSpec::Opt13B();
  fc.group_config.cluster = cluster::ClusterSpec::PaperTestbed();
  fc.group_config.plan.prefill_par = {1, 1};
  fc.group_config.plan.decode_par = {1, 1};
  fc.group_config.plan.num_prefill = 1;
  fc.group_config.plan.num_decode = 1;
  fc.group_config.plan.intra_node_transfers = true;
  return fc;
}

serving::FleetConfig ColocatedFleet(int groups, int shards) {
  serving::FleetConfig fc;
  fc.num_groups = groups;
  fc.shards = shards;
  fc.colocated = true;
  fc.colocated_config.model = model::ModelSpec::Opt13B();
  fc.colocated_config.cluster = cluster::ClusterSpec::PaperTestbed();
  fc.colocated_config.num_instances = 1;
  return fc;
}

std::vector<serving::FaultPlan> GroupFaults(int groups) {
  // Group 1 loses its prefill instance mid-run and recovers; group 2 (when present) loses
  // its decode permanently — exercises parking, re-routing and the router's serviceability
  // staleness across shard boundaries.
  std::vector<serving::FaultPlan> faults(static_cast<size_t>(groups));
  if (groups > 1) {
    faults[1].events = {
        {5.0, serving::FaultDomain::kPrefill, serving::FaultAction::kFail, 0},
        {20.0, serving::FaultDomain::kPrefill, serving::FaultAction::kRecover, 0}};
  }
  if (groups > 2) {
    faults[2].events = {{8.0, serving::FaultDomain::kDecode, serving::FaultAction::kFail, 0}};
  }
  return faults;
}

serving::FleetResult RunFleet(serving::FleetConfig config, const workload::Trace& trace) {
  serving::FleetSystem fleet(std::move(config));
  return fleet.Run(trace);
}

void ExpectFleetIdentical(const serving::FleetResult& a, const serving::FleetResult& b) {
  EXPECT_TRUE(metrics::BitIdentical(a.collector, b.collector));
  EXPECT_EQ(a.group_completed, b.group_completed);
  EXPECT_EQ(a.router_parked_lost, b.router_parked_lost);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.collector.fault_stats().requests_lost, b.collector.fault_stats().requests_lost);
  EXPECT_DOUBLE_EQ(a.collector.fault_stats().downtime_seconds,
                   b.collector.fault_stats().downtime_seconds);
}

TEST(FleetShardingTest, DisaggregatedBitIdenticalAtShards128) {
  const workload::Trace trace = FleetTrace(300, 8.0);
  const serving::FleetResult r1 = RunFleet(DisaggFleet(4, 1), trace);
  EXPECT_EQ(r1.collector.count() + r1.collector.lost_count(), trace.size());
  ExpectFleetIdentical(r1, RunFleet(DisaggFleet(4, 2), trace));
  ExpectFleetIdentical(r1, RunFleet(DisaggFleet(4, 8), trace));
}

// fig_fleet --smoke's shape: 2P2D groups on merged ShareGPT sources. Which events are pending
// at a given time depends on which groups share a shard, so the prefill launches a
// standalone system runs in place stay events in a fleet: the event count, like every
// record, must not depend on the shard count.
TEST(FleetShardingTest, ShareGptFleetEventsIndependentOfShardCount) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::FleetTraceSpec spec;
  spec.rate_per_source = 8.0;
  spec.num_sources = 4;
  spec.requests_per_source = 250;
  spec.seed = 101;
  const workload::Trace trace = workload::GenerateFleetTrace(spec, *dataset);
  auto make = [&trace](int shards) {
    serving::FleetConfig fc = DisaggFleet(4, shards);
    fc.group_config.plan.num_prefill = 2;
    fc.group_config.plan.num_decode = 2;
    return RunFleet(std::move(fc), trace);
  };
  const serving::FleetResult r1 = make(1);
  EXPECT_EQ(r1.collector.count(), trace.size());
  ExpectFleetIdentical(r1, make(4));
  ExpectFleetIdentical(r1, make(8));
}

TEST(FleetShardingTest, ColocatedBitIdenticalAtShards128) {
  const workload::Trace trace = FleetTrace(300, 8.0);
  const serving::FleetResult r1 = RunFleet(ColocatedFleet(4, 1), trace);
  EXPECT_EQ(r1.collector.count(), trace.size());
  ExpectFleetIdentical(r1, RunFleet(ColocatedFleet(4, 2), trace));
  ExpectFleetIdentical(r1, RunFleet(ColocatedFleet(4, 8), trace));
}

TEST(FleetShardingTest, FaultedBitIdenticalAtShards128) {
  const workload::Trace trace = FleetTrace(400, 8.0);
  auto make = [&trace](int shards) {
    serving::FleetConfig fc = DisaggFleet(3, shards);
    fc.group_faults = GroupFaults(3);
    return RunFleet(std::move(fc), trace);
  };
  const serving::FleetResult r1 = make(1);
  EXPECT_GT(r1.collector.fault_stats().instance_failures, 0);
  ExpectFleetIdentical(r1, make(2));
  ExpectFleetIdentical(r1, make(8));
}

TEST(FleetShardingTest, ThreadPoolWorkersDoNotChangeResults) {
  const workload::Trace trace = FleetTrace(200, 8.0);
  const serving::FleetResult serial = RunFleet(DisaggFleet(4, 4), trace);
  ThreadPool pool(3);
  serving::FleetConfig fc = DisaggFleet(4, 4);
  fc.pool = &pool;
  ExpectFleetIdentical(serial, RunFleet(std::move(fc), trace));
}

TEST(FleetShardingTest, TraceJsonIdenticalAcrossShardCounts) {
  const workload::Trace trace = FleetTrace(120, 8.0);
  auto run = [&trace](int shards) {
    std::vector<std::unique_ptr<trace::Recorder>> recorders;
    serving::FleetConfig fc = DisaggFleet(2, shards);
    for (int g = 0; g < fc.num_groups; ++g) {
      recorders.push_back(std::make_unique<trace::Recorder>());
      fc.group_recorders.push_back(recorders.back().get());
    }
    RunFleet(std::move(fc), trace);
    std::vector<std::string> json;
    for (const auto& rec : recorders) {
      json.push_back(rec->ChromeJson());
    }
    return json;
  };
  EXPECT_EQ(run(1), run(2));
}

TEST(FleetShardingTest, RouterParksWhenNoGroupServiceable) {
  const workload::Trace trace = FleetTrace(100, 10.0);
  serving::FleetConfig fc = DisaggFleet(1, 1);
  fc.group_faults.resize(1);
  // The only group loses prefill at t=1 and never recovers: everything after the router
  // learns of it parks at the router and is recorded lost.
  fc.group_faults[0].events = {
      {1.0, serving::FaultDomain::kPrefill, serving::FaultAction::kFail, 0}};
  const serving::FleetResult r = RunFleet(std::move(fc), trace);
  EXPECT_GT(r.router_parked_lost, 0);
  EXPECT_EQ(r.collector.count() + r.collector.lost_count(), trace.size());
}

// A fleet runs once, like the systems it is built from.
TEST(FleetShardingDeathTest, SecondRunAborts) {
  const workload::Trace trace = FleetTrace(20, 5.0);
  auto run_twice = [&trace] {
    serving::FleetSystem fleet(DisaggFleet(2, 1));
    fleet.Run(trace);
    fleet.Run(trace);
  };
  EXPECT_DEATH(run_twice(), "a FleetSystem runs once");
}

// --- Run() streams the trace into the router's shard; results match the up-front schedule ---

TEST(FleetStreamTest, RunIsBitIdenticalToUpFrontArrivalsAtShards12) {
  const workload::Trace trace = test_util::ScenarioTraceWithTies(400, 10.0, 7);
  // Group faults land exactly on arrival times, so at one shard they tie with the router.
  auto disagg = [&trace](int shards) {
    serving::FleetConfig fc = DisaggFleet(3, shards);
    fc.group_faults.resize(3);
    fc.group_faults[1].events = {
        {trace[50].arrival_time, serving::FaultDomain::kPrefill, serving::FaultAction::kFail, 0},
        {trace[150].arrival_time, serving::FaultDomain::kPrefill, serving::FaultAction::kRecover,
         0}};
    fc.group_faults[2].events = {
        {trace[100].arrival_time, serving::FaultDomain::kDecode, serving::FaultAction::kFail, 0}};
    return fc;
  };
  auto chunked = [](int shards) {
    serving::FleetConfig fc = ColocatedFleet(2, shards);
    fc.colocated_config.engine_options.mode =
        engine::ColocatedInstance::Options::SchedulingMode::kChunked;
    fc.colocated_config.engine_options.chunk_budget = 512;
    return fc;
  };
  // Streams the trace and checks that the run released every KV block (per-run engine
  // stepping moves when decode and colocated engines release it).
  auto run_drained = [&trace](serving::FleetConfig config) {
    serving::FleetSystem fleet(std::move(config));
    serving::FleetResult result = fleet.Run(trace);
    EXPECT_EQ(fleet.used_kv_blocks(), 0);
    return result;
  };
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    const serving::FleetResult d = run_drained(disagg(shards));
    EXPECT_GT(d.collector.fault_stats().instance_failures, 0);
    EXPECT_GT(d.collector.cancelled_count(), 0u);
    ExpectFleetIdentical(d, serving::FleetSystemTestPeer::RunUpFront(disagg(shards), trace));
    const serving::FleetResult c = run_drained(chunked(shards));
    EXPECT_GT(c.collector.cancelled_count(), 0u);
    ExpectFleetIdentical(c, serving::FleetSystemTestPeer::RunUpFront(chunked(shards), trace));
  }
}

// --- The sweep driver is deterministic too. ---

TEST(SweepDriverTest, WorkerCountDoesNotChangeResults) {
  const auto square = [](size_t i) { return static_cast<double>(i) * 1.5; };
  const std::vector<double> serial = placement::RunSweep<double>(nullptr, 32, square);
  ThreadPool pool(3);
  EXPECT_EQ(placement::RunSweep<double>(&pool, 32, square), serial);
}

}  // namespace
}  // namespace distserve
