#include "serving/serving_system.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "scenario_trace.h"
#include "simcore/simulator.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::serving {
namespace {

ServingConfig BasicConfig(int num_prefill = 1, int num_decode = 1,
                          bool intra_node = true) {
  ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = num_prefill;
  config.plan.num_decode = num_decode;
  config.plan.intra_node_transfers = intra_node;
  return config;
}

workload::Trace MakeTrace(double rate, int n, uint64_t seed = 1,
                          int input_len = 256, int output_len = 32) {
  workload::FixedDataset dataset(input_len, output_len);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

TEST(ServingSystemTest, AllRequestsCompleteWithValidTimestamps) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(2.0, 200);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), 200u);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_GE(r.prefill_start, r.arrival);
    EXPECT_GT(r.first_token, r.prefill_start);
    EXPECT_GE(r.transfer_start, r.first_token);
    EXPECT_GE(r.transfer_end, r.transfer_start);
    EXPECT_GE(r.decode_start, r.transfer_end);
    EXPECT_GT(r.completion, r.decode_start);
    EXPECT_GT(r.Tpot(), 0.0);
  }
}

TEST(ServingSystemTest, DeterministicAcrossRuns) {
  const workload::Trace trace = MakeTrace(4.0, 300, 7);
  ServingSystem a(BasicConfig());
  ServingSystem b(BasicConfig());
  const metrics::Collector ra = a.Run(trace);
  const metrics::Collector rb = b.Run(trace);
  ASSERT_EQ(ra.count(), rb.count());
  for (size_t i = 0; i < ra.count(); ++i) {
    EXPECT_DOUBLE_EQ(ra.records()[i].first_token, rb.records()[i].first_token);
    EXPECT_DOUBLE_EQ(ra.records()[i].completion, rb.records()[i].completion);
  }
}

TEST(ServingSystemTest, SingleTokenOutputsBypassDecode) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(1.0, 50, 3, 256, /*output_len=*/1);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), 50u);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_DOUBLE_EQ(r.completion, r.first_token);
    EXPECT_DOUBLE_EQ(r.Tpot(), 0.0);
  }
  // No decode instance ever saw them.
  EXPECT_EQ(system.decode_instances()[0]->tokens_generated(), 0);
}

TEST(ServingSystemTest, PrefillKvReleasedAfterPull) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(2.0, 100);
  system.Run(trace);
  EXPECT_EQ(system.prefill_instances()[0]->kv().used_blocks(), 0);
  EXPECT_EQ(system.decode_instances()[0]->kv().used_blocks(), 0);
}

TEST(ServingSystemTest, ReplicasShareLoad) {
  ServingSystem system(BasicConfig(/*num_prefill=*/2, /*num_decode=*/2));
  const workload::Trace trace = MakeTrace(8.0, 400);
  system.Run(trace);
  // Shortest-queue / least-loaded dispatch keeps both replicas busy.
  EXPECT_GT(system.prefill_instances()[0]->batches_launched(), 30);
  EXPECT_GT(system.prefill_instances()[1]->batches_launched(), 30);
  EXPECT_GT(system.decode_instances()[0]->tokens_generated(), 2000);
  EXPECT_GT(system.decode_instances()[1]->tokens_generated(), 2000);
}

TEST(ServingSystemTest, CrossNodeTransfersAreSlower) {
  const workload::Trace trace = MakeTrace(1.0, 100, 5, 512, 16);
  ServingSystem intra(BasicConfig(1, 1, /*intra_node=*/true));
  ServingSystem cross(BasicConfig(1, 1, /*intra_node=*/false));
  const metrics::Collector ri = intra.Run(trace);
  const metrics::Collector rc = cross.Run(trace);
  const double intra_transfer = ri.ComputeBreakdown().transfer;
  const double cross_transfer = rc.ComputeBreakdown().transfer;
  // 25 Gbps NIC vs 300 GB/s NVLink: ~100x slower.
  EXPECT_GT(cross_transfer, 50.0 * intra_transfer);
}

TEST(ServingSystemTest, TransfersRecordedOnLinks) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(2.0, 100);
  system.Run(trace);
  const auto& link = system.ingress_links()[0];
  EXPECT_EQ(link->transfers(), 100);
  const int64_t expected_bytes =
      100LL * 256 * model::ModelSpec::Opt13B().kv_bytes_per_token();
  EXPECT_EQ(link->bytes_transferred(), expected_bytes);
}

TEST(ServingSystemTest, HigherRateDegradesTtft) {
  const int n = 400;
  ServingSystem slow(BasicConfig());
  ServingSystem fast(BasicConfig());
  const metrics::Collector rs = slow.Run(MakeTrace(1.0, n, 9));
  const metrics::Collector rf = fast.Run(MakeTrace(30.0, n, 9));
  EXPECT_GT(rf.TtftPercentile(90), rs.TtftPercentile(90));
}

TEST(ServingSystemTest, AutoTokenTargetAtLeast512) {
  ServingSystem system(BasicConfig());
  EXPECT_GE(system.prefill_token_target(), 512);
}

// --- Run() streams its arrivals; the results match the up-front schedule bit for bit ---

// Two of each instance, with failures and a recovery that land exactly on arrival times.
ServingConfig FaultedConfig(const workload::Trace& trace) {
  ServingConfig config = BasicConfig(/*num_prefill=*/2, /*num_decode=*/2);
  config.faults.events = {
      {trace[60].arrival_time, FaultDomain::kPrefill, FaultAction::kFail, 0},
      {trace[140].arrival_time, FaultDomain::kDecode, FaultAction::kFail, 1},
      {trace[200].arrival_time, FaultDomain::kPrefill, FaultAction::kRecover, 0}};
  return config;
}

// The streaming interface driven with one ScheduleAt per request before ScheduleFaults: the
// arrival schedule Run() used before it streamed its trace.
metrics::Collector RunUpFront(ServingConfig config, const workload::Trace& trace) {
  simcore::Simulator sim;
  config.sim = &sim;
  ServingSystem system(std::move(config));
  system.BeginStream(trace.size());
  for (const workload::Request& req : trace) {
    sim.ScheduleAt(req.arrival_time, [&system, req] { system.Submit(req); });
  }
  system.ScheduleFaults();
  sim.Run();
  return system.FinishStream(sim.now());
}

TEST(ServingSystemStreamTest, RunIsBitIdenticalToUpFrontArrivals) {
  const workload::Trace trace = test_util::ScenarioTraceWithTies(400, 12.0, 5);
  ServingSystem system(FaultedConfig(trace));
  const metrics::Collector streamed = system.Run(trace);
  const metrics::Collector up_front = RunUpFront(FaultedConfig(trace), trace);
  EXPECT_TRUE(metrics::BitIdentical(streamed, up_front));
  const metrics::FaultStats& a = streamed.fault_stats();
  const metrics::FaultStats& b = up_front.fault_stats();
  EXPECT_EQ(a.instance_failures, 2);
  EXPECT_EQ(b.instance_failures, 2);
  EXPECT_EQ(a.instance_recoveries, b.instance_recoveries);
  EXPECT_EQ(a.prefill_restarts, b.prefill_restarts);
  EXPECT_EQ(a.kv_reprefills, b.kv_reprefills);
  EXPECT_EQ(a.decode_redispatches, b.decode_redispatches);
  EXPECT_EQ(a.requests_lost, b.requests_lost);
  EXPECT_EQ(a.downtime_seconds, b.downtime_seconds);
  EXPECT_EQ(streamed.scenario_stats().decode_preemptions,
            up_front.scenario_stats().decode_preemptions);
  // Every axis fired, or the comparison is vacuous.
  EXPECT_GT(streamed.cancelled_count(), 0u);
  EXPECT_EQ(streamed.count() + streamed.NeverCompletedCount(), trace.size());
}

// --- Request-state slots are recycled at each request's outcome ---

using test_util::ExpectOneOutcomePerRequest;
using test_util::MakeRequest;

// Runs `trace` and records the address of each request's state at its outcome, so a test can
// check that a later request really took an earlier one's slot.
struct SlotRun {
  metrics::Collector results;
  std::map<workload::RequestId, const engine::RequestState*> slot;
};

SlotRun RunRecordingSlots(ServingSystem& system, const workload::Trace& trace) {
  SlotRun run;
  system.set_on_request_done(
      [&run](const engine::RequestState& r) { run.slot[r.request.id] = &r; });
  run.results = system.Run(trace);
  return run;
}

void ExpectKvDrained(const ServingSystem& system) {
  for (const auto& p : system.prefill_instances()) {
    if (p->alive()) {
      EXPECT_EQ(p->kv().used_blocks(), 0) << "prefill-" << p->id();
    }
  }
  for (const auto& d : system.decode_instances()) {
    if (d->alive()) {
      EXPECT_EQ(d->kv().used_blocks(), 0) << "decode-" << d->id();
      EXPECT_EQ(d->resident_requests(), 0) << "decode-" << d->id();
    }
  }
}

// A's deadline fires long after A completed, while B — in A's slot — is still decoding. The
// stale deadline must not time B out.
TEST(ServingSystemSlotReuseTest, StaleDeadlineSparesTheSlotsNextRequest) {
  workload::Trace trace = {MakeRequest(0, 0.0, 64, 4), MakeRequest(1, 0.5, 64, 400)};
  trace[0].deadline = 2.0;
  ServingSystem system(BasicConfig());
  const SlotRun run = RunRecordingSlots(system, trace);
  EXPECT_EQ(run.slot.at(1), run.slot.at(0)) << "B must reuse A's slot";
  EXPECT_EQ(run.results.count(), 2u);
  EXPECT_EQ(run.results.timed_out_count(), 0u);
  ASSERT_EQ(run.results.records().size(), 2u);
  EXPECT_GT(run.results.records()[1].completion, trace[0].deadline);  // B outlived it
  ExpectOneOutcomePerRequest(run.results, trace.size());
  ExpectKvDrained(system);
}

// A is cancelled while decode-0's death has a re-route of A pending. B takes A's slot and
// loses its own prefill to prefill-0's death, so B's re-route carries the same attempt number
// A's did. A's stale re-route must not dispatch B a second time.
TEST(ServingSystemSlotReuseTest, CancelledRerouteSparesTheSlotsNextRequest) {
  workload::Trace trace = {MakeRequest(0, 0.0, 64, 500), MakeRequest(1, 1.06, 2048, 8)};
  trace[0].cancel_at = 1.05;
  ServingConfig config = BasicConfig(/*num_prefill=*/2, /*num_decode=*/2);
  config.faults.events = {{1.0, FaultDomain::kDecode, FaultAction::kFail, 0},
                          {1.1, FaultDomain::kPrefill, FaultAction::kFail, 0}};
  ServingSystem system(config);
  const SlotRun run = RunRecordingSlots(system, trace);
  EXPECT_EQ(run.slot.at(1), run.slot.at(0)) << "B must reuse A's slot";
  EXPECT_EQ(run.results.count(), 1u);
  EXPECT_EQ(run.results.cancelled_count(), 1u);
  EXPECT_EQ(run.results.fault_stats().kv_reprefills, 1);     // A lost its decode KV
  EXPECT_EQ(run.results.fault_stats().prefill_restarts, 1);  // B lost its prefill
  ExpectOneOutcomePerRequest(run.results, trace.size());
  ExpectKvDrained(system);
}

// A fault scan re-routes the stranded requests in Submit order, not slot order. X completes
// at prefill and frees the first slot while A (second slot) prefills; B, submitted after A,
// takes X's slot. When prefill-0 dies, A's and B's re-routes fire at the same instant and the
// one scheduled first reaches the surviving instance's queue first: A, whose 2048-token prompt
// then runs alone before B's.
TEST(ServingSystemSlotReuseTest, FaultScanReroutesInSubmitOrder) {
  const workload::Trace trace = {MakeRequest(0, 0.0, 64, 1), MakeRequest(1, 0.01, 2048, 4),
                                 MakeRequest(2, 0.2, 2048, 4)};
  ServingConfig config = BasicConfig(/*num_prefill=*/2, /*num_decode=*/1);
  // prefill-1 is down while the three arrive, so all of them land on prefill-0.
  config.faults.events = {{0.0, FaultDomain::kPrefill, FaultAction::kFail, 1},
                          {0.3, FaultDomain::kPrefill, FaultAction::kRecover, 1},
                          {0.35, FaultDomain::kPrefill, FaultAction::kFail, 0}};
  ServingSystem system(config);
  const SlotRun run = RunRecordingSlots(system, trace);
  EXPECT_EQ(run.slot.at(2), run.slot.at(0)) << "B must reuse X's slot";
  ASSERT_EQ(run.results.count(), 3u);
  EXPECT_EQ(run.results.fault_stats().prefill_restarts, 2);
  const metrics::RequestRecord* a = nullptr;
  const metrics::RequestRecord* b = nullptr;
  for (const metrics::RequestRecord& r : run.results.records()) {
    if (r.id == 1) {
      a = &r;
    } else if (r.id == 2) {
      b = &r;
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_LE(a->first_token, b->prefill_start);
  ExpectOneOutcomePerRequest(run.results, trace.size());
  ExpectKvDrained(system);
}

// The ingress link dies with several KV pulls in flight and recovers before any watchdog
// fires: each pull in flight is retried exactly once, and nothing else is.
TEST(ServingSystemSlotReuseTest, LinkDeathRetriesEachPullInFlightOnce) {
  // Four 2048-token prompts prefill side by side on four instances (~0.7 s) and then queue
  // on the one cross-node ingress link (~0.54 s per pull), so at 1.0 s all four pulls are in
  // flight.
  workload::Trace trace;
  for (int i = 0; i < 4; ++i) {
    trace.push_back(MakeRequest(i, 0.01 * i, 2048, 8));
  }
  constexpr double kFailAt = 1.0;
  ServingConfig config = BasicConfig(/*num_prefill=*/4, /*num_decode=*/1, /*intra_node=*/false);
  config.faults.events = {{kFailAt, FaultDomain::kLink, FaultAction::kFail, 0},
                          {kFailAt + 0.05, FaultDomain::kLink, FaultAction::kRecover, 0}};
  ServingSystem system(config);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());
  int64_t in_flight = 0;
  for (const metrics::RequestRecord& r : results.records()) {
    in_flight += r.transfer_start < kFailAt && r.transfer_end > kFailAt ? 1 : 0;
  }
  EXPECT_EQ(in_flight, 4);
  EXPECT_EQ(results.fault_stats().transfer_retries, in_flight);
  EXPECT_EQ(results.fault_stats().decode_redispatches, 0);
  EXPECT_EQ(system.ingress_links()[0]->transfers_dropped(), 0);
  ExpectOneOutcomePerRequest(results, trace.size());
  ExpectKvDrained(system);
}

// With one request in flight at a time nothing is ever rescheduled (no decode run is cut), so
// a fault-free run fires every event it schedules: the KV pull's watchdog is never scheduled.
TEST(ServingSystemTest, FaultFreeRunSchedulesOnlyEventsThatFire) {
  workload::Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(MakeRequest(i, 2.0 * i, 256, 16));
  }
  ServingSystem system(BasicConfig(/*num_prefill=*/2, /*num_decode=*/2));
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());
  EXPECT_GT(system.simulator().events_processed(), 0);
  EXPECT_EQ(system.simulator().events_cancelled(), 0);
}

// The event diet: arrivals launch an idle prefill instance's batch in place, a completion
// launches the next batch in place, and a KV pull landing mid-run folds its request into the
// lane's run. serve-chatbot's 2P2D shape on ShareGPT fires ~3.8 events per request, and a
// fault-free run still cancels nothing.
TEST(ServingSystemTest, EventsPerRequestBudget) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = 12.8;
  spec.num_requests = 4000;
  spec.seed = 7;
  const workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  ServingSystem system(BasicConfig(/*num_prefill=*/2, /*num_decode=*/2));
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());
  const double per_request = static_cast<double>(system.simulator().events_processed()) /
                             static_cast<double>(trace.size());
  EXPECT_LE(per_request, 3.9);
  EXPECT_EQ(system.simulator().events_cancelled(), 0);
}

// Arrivals that find every prefill instance dead are parked; the recovery re-dispatches them
// all in one callback, so they still form one batch (only the last enqueue of an event may
// launch in place, and the recovery's are not).
TEST(ServingSystemTest, ParkedArrivalsFlushedTogetherShareABatch) {
  workload::Trace trace;
  for (int i = 0; i < 4; ++i) {
    trace.push_back(MakeRequest(i, 0.6 + 0.2 * i, 100, 4));
  }
  constexpr double kRecoverAt = 2.0;
  ServingConfig config = BasicConfig();
  config.faults.events = {{0.5, FaultDomain::kPrefill, FaultAction::kFail, 0},
                          {kRecoverAt, FaultDomain::kPrefill, FaultAction::kRecover, 0}};
  ServingSystem system(config);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());
  EXPECT_EQ(system.prefill_instances()[0]->batches_launched(), 1);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_EQ(r.prefill_start, kRecoverAt);
    EXPECT_EQ(r.first_token, results.records()[0].first_token);
  }
}

// A system runs once: its clock, link and prefill times would carry over into a second run.
TEST(ServingSystemDeathTest, SecondRunAborts) {
  const workload::Trace trace = MakeTrace(2.0, 20);
  auto run_twice = [&trace] {
    ServingSystem system(BasicConfig());
    system.Run(trace);
    system.Run(trace);
  };
  EXPECT_DEATH(run_twice(), "a ServingSystem runs once");
}

// Streaming shares Run's guard: a system streams once.
TEST(ServingSystemDeathTest, SecondBeginStreamAborts) {
  auto stream_twice = [] {
    simcore::Simulator sim;
    ServingConfig config = BasicConfig();
    config.sim = &sim;
    ServingSystem system(std::move(config));
    system.BeginStream(1);
    system.FinishStream(sim.now());
    system.BeginStream(1);
  };
  EXPECT_DEATH(stream_twice(), "a ServingSystem runs once");
}

TEST(ServingSystemDeathTest, DecreasingArrivalTimeAborts) {
  workload::Trace trace = MakeTrace(2.0, 50);
  trace[17].arrival_time = trace[16].arrival_time - 0.25;
  auto run = [&trace] { ServingSystem(BasicConfig()).Run(trace); };
  EXPECT_DEATH(run(), "arrival times must not decrease: arrival 17 ");
}

TEST(ServingSystemDeathTest, OversizedModelRejected) {
  ServingConfig config;
  config.model = model::ModelSpec::Opt175B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};  // 350 GB on one 80 GB GPU
  config.plan.decode_par = {1, 1};
  EXPECT_DEATH(ServingSystem{std::move(config)}, "does not fit");
}

}  // namespace
}  // namespace distserve::serving
