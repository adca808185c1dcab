// Microbenchmarks of the sharded DES core's synchronization overhead (DESIGN.md §17).
//
// The workload is a fixed actor network: 16 actors, each receive fires a short chain of
// local events (the analogue of engine stepping, which dominates real fleet runs) and then
// forwards one message with latency >= lookahead (the analogue of router dispatch/notify).
// BM_PlainSimulator runs it on the raw sequential simcore::Simulator; BM_ShardedSimulator/N
// runs the identical event count through ShardedSimulator at N shards, so the /1 row is the
// pure cost of the windowed run loop + outbox path with zero parallelism available — the
// overhead the transparent 1-shard fallback pays. The perf gate tracks /1 against the plain
// row (budget: <= 5%) and the /2 /4 /8 rows for sync-cost regressions. No thread pool is
// used: on the 1-core CI box this isolates synchronization cost from parallel speedup.
#include <benchmark/benchmark.h>

#include <vector>

#include "simcore/sharded_simulator.h"
#include "simcore/simulator.h"

namespace distserve {
namespace {

constexpr double kLookahead = 0.001;
constexpr int kActors = 16;
constexpr int kHops = 64;
constexpr int kLocalChain = 8;  // local events per receive: engine-work stand-in

// Forwarding latency and local spacing for one actor; latencies are always >= lookahead.
double HopLatency(int actor) { return kLookahead * static_cast<double>(1 + actor % 3); }

struct PlainNet {
  simcore::Simulator sim;
  int64_t received = 0;

  void Arrive(int actor, int hops) {
    ++received;
    for (int i = 1; i <= kLocalChain; ++i) {
      sim.ScheduleAt(sim.now() + static_cast<double>(i) * (kLookahead / 16.0), [] {});
    }
    if (hops <= 0) {
      return;
    }
    const int next = (actor + 5) % kActors;
    sim.ScheduleAt(sim.now() + HopLatency(actor),
                   [this, next, hops] { Arrive(next, hops - 1); });
  }
};

void BM_PlainSimulator(benchmark::State& state) {
  for (auto _ : state) {
    PlainNet net;
    for (int a = 0; a < kActors; ++a) {
      net.sim.ScheduleAt(0.0001 * static_cast<double>(a),
                         [net_ptr = &net, a] { net_ptr->Arrive(a, kHops); });
    }
    benchmark::DoNotOptimize(net.sim.Run());
    benchmark::DoNotOptimize(net.received);
  }
  state.SetItemsProcessed(state.iterations() * kActors * (kHops + 1));
}
BENCHMARK(BM_PlainSimulator);

struct ShardedNet {
  simcore::ShardedSimulator* sim = nullptr;
  std::vector<int> actor_shard;
  std::vector<int> senders;
  int64_t received = 0;

  void Arrive(int actor, int hops) {
    ++received;
    simcore::Simulator* local = sim->shard(actor_shard[static_cast<size_t>(actor)]);
    for (int i = 1; i <= kLocalChain; ++i) {
      local->ScheduleAt(local->now() + static_cast<double>(i) * (kLookahead / 16.0), [] {});
    }
    if (hops <= 0) {
      return;
    }
    const int next = (actor + 5) % kActors;
    sim->Post(senders[static_cast<size_t>(actor)], actor_shard[static_cast<size_t>(next)],
              local->now() + HopLatency(actor),
              [this, next, hops] { Arrive(next, hops - 1); });
  }
};

void BM_ShardedSimulator(benchmark::State& state) {
  const int num_shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simcore::ShardedSimulator::Options options;
    options.num_shards = num_shards;
    options.lookahead = kLookahead;
    simcore::ShardedSimulator sim(options);
    ShardedNet net;
    net.sim = &sim;
    for (int a = 0; a < kActors; ++a) {
      net.actor_shard.push_back(a % sim.num_shards());
      net.senders.push_back(sim.AddSender(net.actor_shard.back()));
    }
    for (int a = 0; a < kActors; ++a) {
      sim.shard(net.actor_shard[static_cast<size_t>(a)])
          ->ScheduleAt(0.0001 * static_cast<double>(a),
                       [net_ptr = &net, a] { net_ptr->Arrive(a, kHops); });
    }
    benchmark::DoNotOptimize(sim.Run());
    benchmark::DoNotOptimize(net.received);
  }
  state.SetItemsProcessed(state.iterations() * kActors * (kHops + 1));
}
BENCHMARK(BM_ShardedSimulator)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace distserve

BENCHMARK_MAIN();
