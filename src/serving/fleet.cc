#include "serving/fleet.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace distserve::serving {

namespace {

simcore::ShardedSimulator::Options MakeShardOptions(const FleetConfig& config) {
  simcore::ShardedSimulator::Options options;
  options.num_shards = config.shards;
  options.lookahead = std::min(config.dispatch_latency, config.notify_latency);
  options.pool = config.pool;
  options.channel_capacity = config.channel_capacity;
  return options;
}

}  // namespace

// Thin closed-union adapter over the two group flavors; exactly one pointer is set.
struct FleetSystem::Group {
  std::unique_ptr<ServingSystem> disagg;
  std::unique_ptr<baselines::VllmSystem> colocated;

  void BeginStream(size_t expected) {
    if (disagg != nullptr) {
      disagg->BeginStream(expected);
    } else {
      colocated->BeginStream(expected);
    }
  }
  void ScheduleFaults() {
    if (disagg != nullptr) {
      disagg->ScheduleFaults();
    }
  }
  void Submit(const workload::Request& req) {
    if (disagg != nullptr) {
      disagg->Submit(req);
    } else {
      colocated->Submit(req);
    }
  }
  bool Serviceable() const {
    return disagg != nullptr ? disagg->Serviceable() : colocated->Serviceable();
  }
  int64_t UsedKvBlocks() const {
    int64_t blocks = 0;
    if (disagg != nullptr) {
      for (const auto& p : disagg->prefill_instances()) {
        blocks += p->kv().used_blocks();
      }
      for (const auto& d : disagg->decode_instances()) {
        blocks += d->kv().used_blocks();
      }
    } else {
      for (const auto& c : colocated->instances()) {
        blocks += c->kv().used_blocks();
      }
    }
    return blocks;
  }
  metrics::Collector Finish(double end_time) {
    return disagg != nullptr ? disagg->FinishStream(end_time)
                             : colocated->FinishStream(end_time);
  }
};

FleetSystem::FleetSystem(FleetConfig config)
    : config_(std::move(config)), sharded_(MakeShardOptions(config_)) {
  DS_CHECK_GE(config_.num_groups, 1);
  DS_CHECK_GT(config_.dispatch_latency, 0.0);
  DS_CHECK_GT(config_.notify_latency, 0.0);
  DS_CHECK(config_.group_faults.empty() ||
           static_cast<int>(config_.group_faults.size()) == config_.num_groups)
      << "group_faults must be empty or one plan per group";
  DS_CHECK(!config_.colocated || config_.group_faults.empty())
      << "fault plans are a disaggregated-fleet feature";
  DS_CHECK(config_.group_recorders.empty() ||
           static_cast<int>(config_.group_recorders.size()) == config_.num_groups)
      << "group_recorders must be empty or one recorder per group";

  // Sender registration order is part of the canonical merge order: router first, then
  // groups by index — never a function of the shard mapping.
  router_sender_ = sharded_.AddSender(0);
  for (int g = 0; g < config_.num_groups; ++g) {
    const int shard = g % sharded_.num_shards();
    group_shard_.push_back(shard);
    group_sender_.push_back(sharded_.AddSender(shard));
    auto group = std::make_unique<Group>();
    if (config_.colocated) {
      baselines::VllmConfig vc = config_.colocated_config;
      vc.sim = sharded_.shard(shard);
      vc.recorder = config_.group_recorders.empty() ? nullptr : config_.group_recorders[g];
      group->colocated = std::make_unique<baselines::VllmSystem>(std::move(vc));
    } else {
      ServingConfig sc = config_.group_config;
      sc.sim = sharded_.shard(shard);
      if (!config_.group_faults.empty()) {
        sc.faults = config_.group_faults[static_cast<size_t>(g)];
      }
      sc.recorder = config_.group_recorders.empty() ? nullptr : config_.group_recorders[g];
      group->disagg = std::make_unique<ServingSystem>(std::move(sc));
    }
    groups_.push_back(std::move(group));
    outstanding_.push_back(0);
    serviceable_.push_back(true);
  }

  for (int g = 0; g < config_.num_groups; ++g) {
    const int sender = group_sender_[static_cast<size_t>(g)];
    const int shard = group_shard_[static_cast<size_t>(g)];
    // Fires on the group's shard; the router hears about it one notify_latency later.
    auto notify_done = [this, g, sender, shard](const engine::RequestState&) {
      sharded_.Post(sender, /*dst_shard=*/0,
                    sharded_.shard(shard)->now() + config_.notify_latency,
                    [this, g] { OnGroupNotify(g); });
    };
    Group* group = groups_[static_cast<size_t>(g)].get();
    if (group->disagg != nullptr) {
      group->disagg->set_on_request_done(notify_done);
      group->disagg->set_fault_callback([this, g, sender, shard](const FaultEvent&) {
        const bool s = groups_[static_cast<size_t>(g)]->Serviceable();
        sharded_.Post(sender, /*dst_shard=*/0,
                      sharded_.shard(shard)->now() + config_.notify_latency, [this, g, s] {
                        serviceable_[static_cast<size_t>(g)] = s;
                        if (s) {
                          FlushRouterParked();
                        }
                      });
      });
    } else {
      group->colocated->set_on_request_done(notify_done);
    }
  }
}

FleetSystem::~FleetSystem() = default;

int64_t FleetSystem::used_kv_blocks() const {
  int64_t blocks = 0;
  for (const auto& group : groups_) {
    blocks += group->UsedKvBlocks();
  }
  return blocks;
}

void FleetSystem::RouteArrival(const workload::Request& req) {
  int best = -1;
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
    if (!serviceable_[static_cast<size_t>(g)]) {
      continue;
    }
    if (outstanding_[static_cast<size_t>(g)] < best_load) {
      best_load = outstanding_[static_cast<size_t>(g)];
      best = g;
    }
  }
  if (best < 0) {
    router_parked_.push_back(req);
    return;
  }
  DispatchTo(best, req);
}

void FleetSystem::DispatchTo(int g, const workload::Request& req) {
  ++outstanding_[static_cast<size_t>(g)];
  const simcore::SimTime when = sharded_.shard(0)->now() + config_.dispatch_latency;
  sharded_.Post(router_sender_, group_shard_[static_cast<size_t>(g)], when,
                [this, g, req] { groups_[static_cast<size_t>(g)]->Submit(req); });
}

void FleetSystem::OnGroupNotify(int g) { --outstanding_[static_cast<size_t>(g)]; }

void FleetSystem::FlushRouterParked() {
  std::deque<workload::Request> pending;
  pending.swap(router_parked_);
  for (const workload::Request& req : pending) {
    RouteArrival(req);
  }
}

FleetResult FleetSystem::Run(const workload::Trace& trace) {
  BeginGroups(trace.size());
  // Setup order is fixed regardless of shard count: arrivals (trace order, streamed into the
  // router's shard), then fault plans per group — mirroring ServingSystem::Run's
  // arrivals-then-faults convention so equal-time tie-breaks match the standalone path.
  sharded_.shard(0)->StreamArrivals(
      trace.size(), [&trace](size_t i) { return trace[i].arrival_time; },
      [this, &trace](size_t i) { RouteArrival(trace[i]); });
  return FaultAndRun();
}

void FleetSystem::BeginGroups(size_t trace_size) {
  DS_CHECK(!started_) << "a FleetSystem runs once: build a new fleet for each Run";
  started_ = true;
  const size_t per_group = trace_size / groups_.size() + 1;
  for (auto& group : groups_) {
    group->BeginStream(per_group);
  }
}

FleetResult FleetSystem::FaultAndRun() {
  for (auto& group : groups_) {
    group->ScheduleFaults();
  }

  FleetResult result;
  result.events = sharded_.Run();
  const double end = sharded_.last_event_time();

  // Arrivals still parked at the router never reached any group; record them lost with the
  // trace-level fields they arrived with.
  for (const workload::Request& req : router_parked_) {
    metrics::RequestRecord rec;
    rec.id = req.id;
    rec.arrival = req.arrival_time;
    rec.input_len = req.input_len;
    rec.output_len = req.output_len;
    result.collector.RecordLost(rec);
    ++result.router_parked_lost;
  }
  router_parked_.clear();

  // Merge in group index order (fixed FaultStats summation order), then canonicalize.
  for (auto& group : groups_) {
    metrics::Collector c = group->Finish(end);
    result.group_completed.push_back(static_cast<int64_t>(c.count()));
    result.collector.Merge(c);
  }
  result.collector.SortById();
  result.sim_stats = sharded_.stats();
  return result;
}

}  // namespace distserve::serving
