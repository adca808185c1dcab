// Figure 8: chatbot application end-to-end, OPT-13B / OPT-66B / OPT-175B on ShareGPT-like
// traffic. For each model: SLO attainment vs per-GPU rate (top row) and vs SLO scale (bottom
// row), DistServe (Algorithm-2 placement) vs vLLM (paper parallelism), equal GPU counts.
// Paper's shape: DistServe sustains 2.0x-3.41x the per-GPU rate and 1.4x-1.8x tighter SLOs.
//
// Flags: --smoke (OPT-13B only, reduced trace, for CI and perf tracking), --json=PATH
// (machine-readable artifact with the standard wall_ms field), --goodput-cache=PATH (env
// DISTSERVE_GOODPUT_CACHE fallback: persist the planner's goodput cache across processes;
// cache statistics go into the JSON artifact), --trace=PATH (export per-request spans for
// every engine run as Chrome trace-event JSON; see DESIGN.md §14), --no-analytic-tier (escape
// hatch: disable the planner's tier-1 analytic pre-filter, DESIGN.md §15, and force-simulate
// the full search). Stdout stays byte-identical across runs — warm-cached or cold, traced or
// not, tier on or off — so the CI determinism job can diff them; timing, cache-hit, and
// planner search-cost accounting go only into the JSON artifact.
//
// --cluster=SPEC (cluster/spec_parse.h grammar) substitutes a different homogeneous cluster
// for the paper testbed; multi-pool fleets are fig_hetero's job and are rejected here. When
// the flag is absent nothing is printed about the cluster, so default stdout is byte-identical
// to the pre-flag output.
//
// --threads=N (env DISTSERVE_THREADS) fans the rate sweeps and the planner's candidate
// simulations across N-1 worker threads (DESIGN.md §17 sweep driver); stdout is byte-identical
// at any N, so the determinism job diffs --threads=4 against the default.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace distserve::bench;
  CommonFlags flags;
  if (!ParseCommonFlags(argc, argv,
                        kFlagSmoke | kFlagJson | kFlagGoodputCache | kFlagTrace |
                            kFlagNoAnalyticTier | kFlagCluster | kFlagThreads,
                        &flags)) {
    return 2;
  }
  distserve::cluster::ClusterSpec cluster = distserve::cluster::ClusterSpec::PaperTestbed();
  if (!ResolveSinglePoolCluster(flags, "fig8", &cluster)) {
    return 2;
  }
  distserve::trace::Recorder recorder;
  distserve::trace::Recorder* rec = flags.trace_path.empty() ? nullptr : &recorder;
  const std::unique_ptr<distserve::ThreadPool> pool = MakeSweepPool(flags.threads);

  PersistentGoodputCache persist(
      distserve::placement::GoodputCacheStore::ResolvePath(flags.goodput_cache), cluster.gpu);

  const WallTimer timer;
  PlannerAccounting accounting;
  distserve::placement::PlannerResult planned;
  if (flags.smoke) {
    RunEndToEndComparison(ChatbotOpt13B(), /*num_requests=*/400, /*seed=*/81, persist.cache(),
                          rec, flags.analytic_tier, &planned, cluster, pool.get());
    accounting.Add(planned);
  } else {
    RunEndToEndComparison(ChatbotOpt13B(), /*num_requests=*/2500, /*seed=*/81, persist.cache(),
                          rec, flags.analytic_tier, &planned, cluster, pool.get());
    accounting.Add(planned);
    RunEndToEndComparison(ChatbotOpt66B(), /*num_requests=*/1500, /*seed=*/82, persist.cache(),
                          rec, flags.analytic_tier, &planned, cluster, pool.get());
    accounting.Add(planned);
    RunEndToEndComparison(ChatbotOpt175B(), /*num_requests=*/1000, /*seed=*/83,
                          persist.cache(), rec, flags.analytic_tier, &planned, cluster,
                          pool.get());
    accounting.Add(planned);
  }
  persist.Save();
  if (!flags.trace_path.empty()) {
    recorder.WriteChromeJson(flags.trace_path);
  }
  if (!flags.json_path.empty()) {
    BenchJson json("fig8_chatbot_e2e");
    json.AddBool("smoke", flags.smoke);
    json.AddBool("analytic_tier", flags.analytic_tier);
    json.AddInt("threads", flags.threads);
    json.AddWallMs(timer);
    accounting.AddJsonFields(json);
    if (persist.enabled()) {
      persist.AddJsonFields(json);
    }
    if (!json.WriteTo(flags.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", flags.json_path.c_str());
      return 1;
    }
  }
  return 0;
}
