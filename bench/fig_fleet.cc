// fig_fleet (extension beyond the paper's exhibits): fleet-scale serving on the sharded
// discrete-event core (DESIGN.md §17).
//
// Simulates a router fronting many independent serving groups — the full build is 16 groups
// of 2 prefill + 2 decode OPT-13B instances (64 engine instances) fed by a 16-source merged
// arrival trace of one million requests — on simcore::ShardedSimulator with conservative
// lookahead. The point of the exhibit is twofold: the fleet completes at this scale in one
// process, and the result is bit-identical at every shard count, so the exhibit doubles as
// the end-to-end determinism fixture for the sharded core.
//
// Flags: --smoke (4 groups, small trace, plus an in-process bit-identity self-check of
// shards=1 vs shards=4 — the configuration CI runs), --json=PATH (machine-readable artifact),
// --shards=N (env DISTSERVE_SHARDS; default 1). Stdout is byte-identical at any --shards
// value — the determinism job diffs exactly this — so everything shard-dependent (per-shard
// event counts, sync rounds, message totals) goes only into the JSON artifact.
//
// No thread pool is wired here: the CI container has one core, so shard advancement is
// serial and the exhibit measures the sharded core's bookkeeping cost, not parallel speedup.
// Multicore users can set FleetConfig::pool; the per-window work gate in
// ShardedSimulator::Run keeps barriers off the single-active-shard windows either way.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "serving/fleet.h"

namespace distserve::bench {
namespace {

serving::FleetConfig MakeFleetConfig(const Application& app, int num_groups, int shards) {
  serving::FleetConfig fc;
  fc.num_groups = num_groups;
  fc.shards = shards;
  fc.group_config.model = app.model;
  fc.group_config.cluster = cluster::ClusterSpec::PaperTestbed();
  fc.group_config.plan.prefill_par = {1, 1};
  fc.group_config.plan.decode_par = {1, 1};
  fc.group_config.plan.num_prefill = 2;
  fc.group_config.plan.num_decode = 2;
  fc.group_config.plan.intra_node_transfers = true;
  return fc;
}

int Main(int argc, char** argv) {
  const WallTimer timer;
  CommonFlags flags;
  if (!ParseCommonFlags(argc, argv, kFlagSmoke | kFlagJson | kFlagShards, &flags)) {
    return 2;
  }

  const Application app = ChatbotOpt13B();
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  const int num_groups = flags.smoke ? 4 : 16;
  const int instances_per_group = 4;  // 2P + 2D

  // One arrival source per group's worth of capacity, merged into a single router stream.
  // ~8 req/s per source keeps each 2P+2D group just under its fig13 operating point, so the
  // fleet is busy but not divergently overloaded.
  workload::FleetTraceSpec spec;
  spec.rate_per_source = 8.0;
  spec.num_sources = num_groups;
  spec.requests_per_source = flags.smoke ? 250 : 62500;
  spec.seed = 101;
  const workload::Trace trace = workload::GenerateFleetTrace(spec, *dataset);

  std::printf("fig_fleet: %d groups x (2P+2D) = %d instances, %zu requests, %.1f req/s "
              "offered (chatbot-13b)\n",
              num_groups, num_groups * instances_per_group, trace.size(),
              spec.rate_per_source * spec.num_sources);

  serving::FleetSystem fleet(MakeFleetConfig(app, num_groups, flags.shards));
  serving::FleetResult result = fleet.Run(trace);

  const metrics::Attainment att = result.collector.ComputeAttainment(app.slo);
  const double goodput = result.collector.GoodputUnderSlo(app.slo);
  std::printf("completed %zu  lost %zu  attainment both %.2f%% (ttft %.2f%%, tpot %.2f%%)  "
              "goodput %.3f req/s\n",
              result.collector.count(), result.collector.lost_count(), 100.0 * att.both,
              100.0 * att.ttft_only, 100.0 * att.tpot_only, goodput);
  int64_t min_completed = result.group_completed.empty() ? 0 : result.group_completed.front();
  int64_t max_completed = min_completed;
  for (int64_t c : result.group_completed) {
    min_completed = std::min(min_completed, c);
    max_completed = std::max(max_completed, c);
  }
  std::printf("events %lld  group load min/max %lld/%lld\n",
              static_cast<long long>(result.events), static_cast<long long>(min_completed),
              static_cast<long long>(max_completed));
  const bool served_all =
      result.collector.count() + result.collector.lost_count() == trace.size();
  std::printf("SERVED-ALL: %s\n", served_all ? "PASS" : "FAIL");

  // Smoke self-check: the whole fleet, re-run sequentially and at 4 shards, must agree
  // bit-for-bit regardless of what --shards the measured run above used.
  bool identical = true;
  if (flags.smoke) {
    serving::FleetSystem seq(MakeFleetConfig(app, num_groups, /*shards=*/1));
    serving::FleetSystem sharded(MakeFleetConfig(app, num_groups, /*shards=*/4));
    const serving::FleetResult a = seq.Run(trace);
    const serving::FleetResult b = sharded.Run(trace);
    identical = metrics::BitIdentical(a.collector, b.collector) && a.events == b.events &&
                a.group_completed == b.group_completed;
    std::printf("BIT-IDENTITY (shards 1 vs 4): %s\n", identical ? "PASS" : "FAIL");
  }

  if (!flags.json_path.empty()) {
    BenchJson json("fig_fleet");
    json.AddBool("smoke", flags.smoke);
    json.AddInt("shards", flags.shards);
    json.AddInt("num_groups", num_groups);
    json.AddInt("instances", num_groups * instances_per_group);
    json.AddInt("requests", static_cast<int64_t>(trace.size()));
    json.AddInt("completed", static_cast<int64_t>(result.collector.count()));
    json.AddInt("lost", static_cast<int64_t>(result.collector.lost_count()));
    json.AddDouble("attainment_both", att.both);
    json.AddDouble("goodput", goodput);
    json.AddInt("events", result.events);
    json.AddInt("sync_rounds", result.sim_stats.sync_rounds);
    json.AddInt("cross_shard_messages", result.sim_stats.messages);
    json.AddInt("channel_spills", result.sim_stats.channel_spills);
    std::string per_shard;
    for (const auto& s : result.sim_stats.shards) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s{\"events\": %lld, \"messages_in\": %lld}",
                    per_shard.empty() ? "" : ", ", static_cast<long long>(s.events),
                    static_cast<long long>(s.messages_in));
      per_shard += buf;
    }
    json.AddRaw("per_shard", "[" + per_shard + "]");
    json.AddWallMs(timer);
    if (!json.WriteTo(flags.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", flags.json_path.c_str());
      return 1;
    }
  }
  return (served_all && identical) ? 0 : 1;
}

}  // namespace
}  // namespace distserve::bench

int main(int argc, char** argv) { return distserve::bench::Main(argc, argv); }
