#include "serving/serving_system.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"
#include "trace/recorder.h"

namespace distserve::serving {

namespace {

model::LatencyCoefficients ResolveCoefficients(const ServingConfig& config) {
  if (config.coefficients.has_value()) {
    return *config.coefficients;
  }
  return model::LatencyCoefficients::FromGpu(config.cluster.gpu);
}

}  // namespace

ServingSystem::ServingSystem(ServingConfig config) : config_(std::move(config)) {
  if (config_.sim != nullptr) {
    sim_ = config_.sim;
  } else {
    owned_sim_ = std::make_unique<simcore::Simulator>();
    sim_ = owned_sim_.get();
  }
  const model::LatencyCoefficients coeffs = ResolveCoefficients(config_);
  const placement::PlacementPlan& plan = config_.plan;
  DS_CHECK_GE(plan.num_prefill, 1);
  DS_CHECK_GE(plan.num_decode, 1);

  kv_bytes_per_prompt_token_ = config_.model.kv_bytes_per_token();

  // Prefill instances.
  model::LatencyModel prefill_model(config_.model, plan.prefill_par, coeffs);
  DS_CHECK(prefill_model.view().FitsInMemory(config_.cluster.gpu))
      << config_.model.name << " with " << plan.prefill_par.ToString()
      << " does not fit GPU memory";
  engine::PrefillInstance::Options prefill_opts = config_.prefill_options;
  if (prefill_opts.batch_policy.target_tokens <= 0) {
    prefill_opts.batch_policy.target_tokens =
        std::max<int64_t>(512, prefill_model.ComputeSaturationTokens());
  }
  prefill_token_target_ = prefill_opts.batch_policy.target_tokens;
  const int64_t prefill_kv_tokens =
      prefill_model.view().KvCapacityTokens(config_.cluster.gpu);
  for (int i = 0; i < plan.num_prefill; ++i) {
    prefills_.push_back(std::make_unique<engine::PrefillInstance>(
        sim_, prefill_model, prefill_kv_tokens, prefill_opts, i));
    prefills_.back()->set_on_complete(
        [this](engine::RequestState* r) { OnPrefillDone(r); });
  }

  // Decode instances and their ingress links.
  model::LatencyModel decode_model(config_.model, plan.decode_par, coeffs);
  DS_CHECK(decode_model.view().FitsInMemory(config_.cluster.gpu))
      << config_.model.name << " with " << plan.decode_par.ToString()
      << " does not fit GPU memory";
  const int64_t decode_kv_tokens = decode_model.view().KvCapacityTokens(config_.cluster.gpu);
  const double link_bw = plan.intra_node_transfers ? config_.cluster.gpu.nvlink_bandwidth
                                                   : config_.cluster.cross_node_bandwidth;
  const double link_lat = plan.intra_node_transfers ? config_.cluster.intra_node_latency
                                                    : config_.cluster.cross_node_latency;
  for (int i = 0; i < plan.num_decode; ++i) {
    decodes_.push_back(std::make_unique<engine::DecodeInstance>(
        sim_, decode_model, decode_kv_tokens, config_.decode_options, i));
    links_.push_back(std::make_unique<Link>(sim_, link_bw, link_lat,
                                            "decode-" + std::to_string(i) + "-ingress"));
    engine::DecodeInstance* decode = decodes_.back().get();
    const size_t link_idx = links_.size() - 1;
    decode->set_transfer_fn(
        [this, link_idx](engine::RequestState* r, std::function<void()> done) {
          r->transfer_tries = 0;
          StartKvPull(link_idx, r, std::move(done));
        });
    decode->set_on_complete([this](engine::RequestState* r) { OnDecodeDone(r); });
    decode->set_on_preempt([this](engine::RequestState* r) { OnDecodePreempt(r); });
  }

  prefill_down_since_.resize(prefills_.size());
  decode_down_since_.resize(decodes_.size());
  link_down_since_.resize(links_.size());

  if (config_.recorder != nullptr) {
    trace::Recorder* rec = config_.recorder;
    rec->SetProcessName(trace::kControllerPid, "controller");
    for (const auto& p : prefills_) {
      p->set_recorder(rec);
      rec->SetProcessName(trace::PrefillPid(p->id()), "prefill-" + std::to_string(p->id()));
    }
    for (const auto& d : decodes_) {
      d->set_recorder(rec);
      rec->SetProcessName(trace::DecodePid(d->id()), "decode-" + std::to_string(d->id()));
    }
    for (size_t i = 0; i < links_.size(); ++i) {
      const int32_t pid = trace::LinkPid(static_cast<int>(i));
      links_[i]->set_recorder(rec, pid);
      rec->SetProcessName(pid, links_[i]->name());
    }
  }
}

ServingSystem::~ServingSystem() = default;

void ServingSystem::DispatchArrival(engine::RequestState* request) {
  // Shortest-queue prefill dispatch (by queued tokens, which tracks work better than count),
  // over live instances only.
  engine::PrefillInstance* best = nullptr;
  int64_t best_tokens = std::numeric_limits<int64_t>::max();
  for (const auto& p : prefills_) {
    if (p->alive() && p->outstanding_tokens() < best_tokens) {
      best_tokens = p->outstanding_tokens();
      best = p.get();
    }
  }
  if (best == nullptr) {
    Park(request);
    return;
  }
  best->Enqueue(request);
}

void ServingSystem::DispatchToDecode(engine::RequestState* request) {
  // Least-loaded decode dispatch over live instances, preferring ones whose ingress link is
  // also alive (routing around dead links); a dead-link instance is still usable — its pulls
  // ride the retry/timeout path until the link recovers or retries exhaust.
  int best = -1;
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (int pass = 0; pass < 2 && best < 0; ++pass) {
    for (size_t i = 0; i < decodes_.size(); ++i) {
      if (!decodes_[i]->alive() || (pass == 0 && !links_[i]->alive())) {
        continue;
      }
      if (decodes_[i]->load() < best_load) {
        best_load = decodes_[i]->load();
        best = static_cast<int>(i);
      }
    }
  }
  if (best < 0) {
    request->phase = engine::RequestPhase::kDecodePending;
    request->decode_instance = -1;
    Park(request);
    return;
  }
  decodes_[static_cast<size_t>(best)]->Submit(request);
}

void ServingSystem::OnPrefillDone(engine::RequestState* request) {
  if (request->cancel_pending) {
    // The client abandoned while this prefill batch was executing; the KV just computed is
    // released and the deferred teardown completes here.
    prefills_[static_cast<size_t>(request->prefill_instance)]->ReleaseKv(request);
    request->cancel_pending = false;
    FinishAbandon(request, request->abandon_timed_out);
    return;
  }
  if (request->request.output_len <= 1) {
    // Single-token output: the request completes at prefill; no transfer, no decode.
    const double now = sim_->now();
    request->record.transfer_start = now;
    request->record.transfer_end = now;
    request->record.decode_start = now;
    request->record.completion = now;
    DS_TRACE(config_.recorder, Finish(request->request.id, now));
    prefills_[static_cast<size_t>(request->prefill_instance)]->ReleaseKv(request);
    OnDecodeDone(request);
    return;
  }
  DispatchToDecode(request);
}

void ServingSystem::OnDecodeDone(engine::RequestState* request) {
  request->phase = engine::RequestPhase::kDone;
  collector_.Record(request->record);
  ++completed_;
  if (on_request_done_) {
    on_request_done_(*request);
  }
}

bool ServingSystem::Serviceable() const {
  bool prefill_alive = false;
  for (const auto& p : prefills_) {
    prefill_alive = prefill_alive || p->alive();
  }
  bool decode_alive = false;
  for (const auto& d : decodes_) {
    decode_alive = decode_alive || d->alive();
  }
  return prefill_alive && decode_alive;
}

// --- KV pull with watchdog/retry ---------------------------------------------------------

void ServingSystem::StartKvPull(size_t link_idx, engine::RequestState* request,
                                std::function<void()> done) {
  Link* link = links_[link_idx].get();
  const int attempt = request->attempt;
  const int seq = ++request->transfer_seq;
  const int64_t bytes =
      static_cast<int64_t>(request->request.input_len) * kv_bytes_per_prompt_token_;
  auto watchdog = std::make_shared<simcore::EventHandle>();
  // A dead link drops the pull silently (and counts it); only the watchdog notices.
  link->Transfer(bytes, [this, request, attempt, seq, watchdog, done] {
    if (request->attempt != attempt || request->transfer_seq != seq) {
      return;  // re-routed or retried while the pull was in flight
    }
    watchdog->Cancel();
    // Pull complete: the prefill side may now release its copy.
    prefills_[static_cast<size_t>(request->prefill_instance)]->ReleaseKv(request);
    done();
  });
  // Watchdog. On a live link it is armed past the pull's worst-case completion, so it only
  // fires when the link dies mid-flight; on a dead link it doubles as the retry backoff.
  double fire_at;
  if (link->alive()) {
    const double service = static_cast<double>(bytes) / link->bandwidth();
    // The FIFO pipe serializes pulls; an upper bound on queueing is every currently-admitted
    // resident request pulling ahead of us. Cheaper and exact enough: expected completion is
    // busy_until + service, but busy_until is private — bound it with timeout growth instead.
    fire_at = sim_->now() + service * (1.0 + static_cast<double>(decodes_[link_idx]->load())) +
              config_.fault_options.transfer_timeout *
                  std::pow(2.0, static_cast<double>(request->transfer_tries));
  } else {
    fire_at = sim_->now() + config_.fault_options.transfer_backoff *
                               std::pow(2.0, static_cast<double>(request->transfer_tries));
  }
  *watchdog = sim_->ScheduleAt(
      fire_at, [this, link_idx, request, attempt, seq, done = std::move(done)] {
        if (request->attempt != attempt || request->transfer_seq != seq) {
          return;
        }
        OnKvPullTimeout(link_idx, request, done);
      });
}

void ServingSystem::OnKvPullTimeout(size_t link_idx, engine::RequestState* request,
                                    std::function<void()> done) {
  ++fault_stats().transfer_retries;
  ++request->transfer_tries;
  if (request->transfer_tries <= config_.fault_options.max_transfer_retries) {
    DS_TRACE(config_.recorder,
             Transition(request->request.id, sim_->now(), trace::SpanKind::kLinkRetry,
                        trace::kControllerPid, 0, request->transfer_tries));
    StartKvPull(link_idx, request, std::move(done));
    return;
  }
  // Retries exhausted: route around the dead link to a decode instance with a live one.
  engine::DecodeInstance* owner = decodes_[static_cast<size_t>(request->decode_instance)].get();
  owner->Abort(request);
  ++request->attempt;
  request->transfer_tries = 0;
  int target = -1;
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < decodes_.size(); ++i) {
    if (i == link_idx || !decodes_[i]->alive() || !links_[i]->alive()) {
      continue;
    }
    if (decodes_[i]->load() < best_load) {
      best_load = decodes_[i]->load();
      target = static_cast<int>(i);
    }
  }
  if (target < 0) {
    FailFast(request);
    return;
  }
  ++fault_stats().decode_redispatches;
  request->phase = engine::RequestPhase::kDecodePending;
  request->decode_instance = -1;
  DS_TRACE(config_.recorder, Transition(request->request.id, sim_->now(),
                                        trace::SpanKind::kRedispatch, trace::kControllerPid, 0,
                                        request->attempt));
  ScheduleReroute(request);
}

// --- Fault application --------------------------------------------------------------------

void ServingSystem::ApplyFault(const FaultEvent& event) {
  const size_t index = static_cast<size_t>(event.index);
  const double now = sim_->now();
  switch (event.domain) {
    case FaultDomain::kPrefill: {
      DS_CHECK(index < prefills_.size()) << "fault plan indexes prefill-" << event.index;
      if (event.action == FaultAction::kFail) {
        if (prefills_[index]->alive()) {
          ++fault_stats().instance_failures;
          prefill_down_since_[index] = now;
          OnPrefillFailure(event.index);
        }
      } else if (!prefills_[index]->alive()) {
        ++fault_stats().instance_recoveries;
        fault_stats().downtime_seconds += now - prefill_down_since_[index].value_or(now);
        prefill_down_since_[index].reset();
        prefills_[index]->Recover();
        FlushParked();
      }
      break;
    }
    case FaultDomain::kDecode: {
      DS_CHECK(index < decodes_.size()) << "fault plan indexes decode-" << event.index;
      if (event.action == FaultAction::kFail) {
        if (decodes_[index]->alive()) {
          ++fault_stats().instance_failures;
          decode_down_since_[index] = now;
          OnDecodeFailure(event.index);
        }
      } else if (!decodes_[index]->alive()) {
        ++fault_stats().instance_recoveries;
        fault_stats().downtime_seconds += now - decode_down_since_[index].value_or(now);
        decode_down_since_[index].reset();
        decodes_[index]->Recover();
        FlushParked();
      }
      break;
    }
    case FaultDomain::kLink: {
      DS_CHECK(index < links_.size()) << "fault plan indexes link-" << event.index;
      if (event.action == FaultAction::kFail) {
        if (links_[index]->alive()) {
          ++fault_stats().link_failures;
          link_down_since_[index] = now;
          // No scan needed: in-flight pulls are squashed by the link's epoch and every pull
          // carries a watchdog that retries or routes around.
          links_[index]->Fail();
        }
      } else if (!links_[index]->alive()) {
        ++fault_stats().link_recoveries;
        fault_stats().downtime_seconds += now - link_down_since_[index].value_or(now);
        link_down_since_[index].reset();
        links_[index]->Recover();
        FlushParked();
      }
      break;
    }
  }
  if (fault_callback_) {
    fault_callback_(event);
  }
}

void ServingSystem::OnPrefillFailure(int index) {
  prefills_[static_cast<size_t>(index)]->Fail();
  for (const auto& state : states_) {
    engine::RequestState* r = state.get();
    if (r->prefill_instance != index) {
      continue;
    }
    if (r->cancel_pending) {
      // The abandoning request's executing batch died with the instance; its KV pool is
      // gone wholesale, so the deferred teardown completes with nothing left to release.
      r->cancel_pending = false;
      FinishAbandon(r, r->abandon_timed_out);
      continue;
    }
    switch (r->phase) {
      case engine::RequestPhase::kPrefillQueued:
      case engine::RequestPhase::kPrefilling:
        // Work in progress died with the instance: restart the prefill from scratch.
        ++r->attempt;
        ++r->prefill_restarts;
        ++fault_stats().prefill_restarts;
        r->phase = engine::RequestPhase::kPending;
        DS_TRACE(config_.recorder,
                 Transition(r->request.id, sim_->now(), trace::SpanKind::kRestart,
                            trace::kControllerPid, 0, r->prefill_restarts));
        if (!r->parked) {
          ScheduleReroute(r);
        }
        break;
      case engine::RequestPhase::kDecodePending:
      case engine::RequestPhase::kTransferring:
        // Prefill finished but its KV copy died before (or during) the pull: re-prefill on a
        // healthy instance, modelling the paper's KV-loss cost.
        if (r->decode_instance >= 0) {
          decodes_[static_cast<size_t>(r->decode_instance)]->Abort(r);
          r->decode_instance = -1;
        }
        ++r->attempt;
        ++r->kv_reprefills;
        ++fault_stats().kv_reprefills;
        r->phase = engine::RequestPhase::kPending;
        DS_TRACE(config_.recorder,
                 Transition(r->request.id, sim_->now(), trace::SpanKind::kRePrefill,
                            trace::kControllerPid, 0, r->kv_reprefills));
        if (!r->parked) {
          ScheduleReroute(r);
        }
        break;
      default:
        break;  // kDecoding and beyond: the prefill copy was already released
    }
  }
}

void ServingSystem::OnDecodeFailure(int index) {
  decodes_[static_cast<size_t>(index)]->Fail();
  for (const auto& state : states_) {
    engine::RequestState* r = state.get();
    if (r->decode_instance != index) {
      continue;
    }
    switch (r->phase) {
      case engine::RequestPhase::kDecodePending:
      case engine::RequestPhase::kTransferring:
        // The prefill side still holds the KV copy (released only at pull completion, which
        // the attempt bump squashes): just re-dispatch to another decode instance.
        ++r->attempt;
        ++fault_stats().decode_redispatches;
        r->phase = engine::RequestPhase::kDecodePending;
        r->decode_instance = -1;
        DS_TRACE(config_.recorder,
                 Transition(r->request.id, sim_->now(), trace::SpanKind::kRedispatch,
                            trace::kControllerPid, 0, r->attempt));
        if (!r->parked) {
          ScheduleReroute(r);
        }
        break;
      case engine::RequestPhase::kDecoding:
        // Prompt KV and generated tokens lived on the dead GPU and the prefill copy is gone:
        // full re-prefill, losing all decode progress.
        ++r->attempt;
        ++r->kv_reprefills;
        ++fault_stats().kv_reprefills;
        r->decode_steps_done = 0;
        r->phase = engine::RequestPhase::kPending;
        r->decode_instance = -1;
        DS_TRACE(config_.recorder,
                 Transition(r->request.id, sim_->now(), trace::SpanKind::kRePrefill,
                            trace::kControllerPid, 0, r->kv_reprefills));
        if (!r->parked) {
          ScheduleReroute(r);
        }
        break;
      default:
        break;
    }
  }
}

void ServingSystem::ScheduleReroute(engine::RequestState* request) {
  const int attempt = request->attempt;
  sim_->ScheduleAfter(config_.fault_options.redispatch_delay, [this, request, attempt] {
    if (request->attempt != attempt || request->parked) {
      return;  // a newer fault re-routed (or parked) it first
    }
    RouteAfterFault(request);
  });
}

void ServingSystem::RouteAfterFault(engine::RequestState* request) {
  switch (request->phase) {
    case engine::RequestPhase::kPending:
      DispatchArrival(request);
      break;
    case engine::RequestPhase::kDecodePending:
      DispatchToDecode(request);
      break;
    default:
      DS_CHECK(false) << "unroutable phase for request " << request->request.id;
  }
}

void ServingSystem::Park(engine::RequestState* request) {
  DS_CHECK(!request->parked);
  request->parked = true;
  // Parked time is controller-held: the open redispatch span absorbs it (and starts the
  // timeline for arrivals that find every instance dead).
  DS_TRACE(config_.recorder, Transition(request->request.id, sim_->now(),
                                        trace::SpanKind::kRedispatch, trace::kControllerPid, 0,
                                        request->attempt));
  parked_.push_back(request);
}

void ServingSystem::FlushParked() {
  std::deque<engine::RequestState*> waiting;
  waiting.swap(parked_);
  for (engine::RequestState* r : waiting) {
    r->parked = false;
    RouteAfterFault(r);  // may re-park when its component class is still fully dead
  }
}

void ServingSystem::FailFast(engine::RequestState* request) {
  // A request dropped between prefill completion and pull completion still holds its KV copy
  // on the prefill side; release it, or the prefill pool leaks one prompt per lost request
  // until the batch former stalls on memory for good.
  if ((request->phase == engine::RequestPhase::kDecodePending ||
       request->phase == engine::RequestPhase::kTransferring) &&
      request->prefill_instance >= 0) {
    prefills_[static_cast<size_t>(request->prefill_instance)]->ReleaseKv(request);
  }
  request->phase = engine::RequestPhase::kLost;
  DS_TRACE(config_.recorder, Drop(request->request.id, sim_->now()));
  collector_.RecordLost(request->record);
  if (on_request_done_ && !finishing_) {
    on_request_done_(*request);
  }
}

// --- Scenario machinery (client abandonment + multi-tenant preemption) -------------------

void ServingSystem::ScheduleAbandonment(engine::RequestState* request) {
  const workload::Request& req = request->request;
  if (req.cancel_at > 0.0) {
    sim_->ScheduleAt(std::max(req.cancel_at, sim_->now()),
                     [this, request] { CancelRequest(request, /*timed_out=*/false); });
  }
  if (req.deadline > 0.0) {
    sim_->ScheduleAt(std::max(req.deadline, sim_->now()),
                     [this, request] { CancelRequest(request, /*timed_out=*/true); });
  }
}

void ServingSystem::FinishAbandon(engine::RequestState* request, bool timed_out) {
  request->phase =
      timed_out ? engine::RequestPhase::kTimedOut : engine::RequestPhase::kCancelled;
  DS_TRACE(config_.recorder,
           Drop(request->request.id, sim_->now(),
                timed_out ? trace::Recorder::OutcomeKind::kTimedOut
                          : trace::Recorder::OutcomeKind::kCancelled));
  if (timed_out) {
    collector_.RecordTimedOut(request->record);
  } else {
    collector_.RecordCancelled(request->record);
  }
  if (on_request_done_ && !finishing_) {
    on_request_done_(*request);
  }
}

void ServingSystem::CancelRequest(engine::RequestState* request, bool timed_out) {
  switch (request->phase) {
    case engine::RequestPhase::kDone:
    case engine::RequestPhase::kLost:
    case engine::RequestPhase::kCancelled:
    case engine::RequestPhase::kTimedOut:
      return;  // already terminal (e.g. completed before the deadline fired)
    default:
      break;
  }
  if (request->cancel_pending) {
    return;  // an earlier cancel/timeout is already tearing it down
  }
  // A parked request (kPending or kDecodePending) leaves the parked list whatever its phase,
  // or the next recovery's FlushParked would route a finished request.
  if (request->parked) {
    request->parked = false;
    std::erase(parked_, request);
  }
  switch (request->phase) {
    case engine::RequestPhase::kPending: {
      // Awaiting a fault re-route, or was parked: nothing holds resources.
      ++request->attempt;  // squashes any scheduled re-route
      FinishAbandon(request, timed_out);
      return;
    }
    case engine::RequestPhase::kPrefillQueued: {
      if (prefills_[static_cast<size_t>(request->prefill_instance)]->Withdraw(request)) {
        ++request->attempt;
        FinishAbandon(request, timed_out);  // still queued: no KV reserved yet
        return;
      }
      // Already popped into a formed batch (KV reserved, execution imminent or running):
      // defer to the batch boundary like kPrefilling.
      request->cancel_pending = true;
      request->abandon_timed_out = timed_out;
      return;
    }
    case engine::RequestPhase::kPrefilling: {
      // Mid-batch: the batch finishes on schedule; OnPrefillDone reaps the teardown.
      request->cancel_pending = true;
      request->abandon_timed_out = timed_out;
      return;
    }
    case engine::RequestPhase::kDecodePending:
    case engine::RequestPhase::kTransferring: {
      // The prefill side still holds the KV copy; the attempt bump squashes an in-flight
      // pull completion and its watchdog (the FailFast release discipline).
      ++request->attempt;
      if (request->decode_instance >= 0) {
        decodes_[static_cast<size_t>(request->decode_instance)]->Abort(request);
      }
      if (request->prefill_instance >= 0) {
        prefills_[static_cast<size_t>(request->prefill_instance)]->ReleaseKv(request);
      }
      FinishAbandon(request, timed_out);
      return;
    }
    case engine::RequestPhase::kDecoding: {
      // Abort releases the decode-side KV and removes the request from its lane even
      // mid-step (LaneStepEnd reads the live membership, the same safety the fault path
      // relies on); the prefill copy was released at pull completion.
      ++request->attempt;
      decodes_[static_cast<size_t>(request->decode_instance)]->Abort(request);
      FinishAbandon(request, timed_out);
      return;
    }
    default:
      return;
  }
}

void ServingSystem::OnDecodePreempt(engine::RequestState* request) {
  // Same recovery as a decode-side KV-loss fault, but charged to scenario counters: the
  // prefill copy is long released, so the victim re-prefills from scratch (keeping any
  // cached prefix) and loses its decode progress.
  ++request->attempt;
  ++collector_.scenario_stats().decode_preemptions;
  request->decode_steps_done = 0;
  request->phase = engine::RequestPhase::kPending;
  request->decode_instance = -1;
  DS_TRACE(config_.recorder,
           Transition(request->request.id, sim_->now(), trace::SpanKind::kRePrefill,
                      trace::kControllerPid, 0, request->preemptions));
  ScheduleReroute(request);
}

void ServingSystem::BeginStream(size_t expected_requests) {
  DS_TRACE(config_.recorder, NewRun());
  collector_ = metrics::Collector();
  collector_.Reserve(expected_requests);
  states_.clear();
  states_.reserve(expected_requests);
  parked_.clear();
  completed_ = 0;
}

engine::RequestState* ServingSystem::Submit(const workload::Request& request) {
  states_.push_back(std::make_unique<engine::RequestState>(request));
  engine::RequestState* state = states_.back().get();
  ScheduleAbandonment(state);
  DispatchArrival(state);
  return state;
}

void ServingSystem::ScheduleFaults() {
  for (const FaultEvent& event : config_.faults.events) {
    DS_CHECK_GE(event.time, 0.0);
    sim_->ScheduleAt(event.time, [this, event] { ApplyFault(event); });
  }
}

metrics::Collector ServingSystem::Run(const workload::Trace& trace) {
  BeginStream(trace.size());
  for (const workload::Request& req : trace) {
    sim_->ScheduleAt(req.arrival_time, [this, req] { Submit(req); });
  }
  ScheduleFaults();
  sim_->Run();
  return FinishStream(sim_->now());
}

metrics::Collector ServingSystem::FinishStream(double end_time) {
  // Requests stranded with no recovery in the plan are lost, not deadlocked. The stream is
  // over, so the done-callback stays quiet for these.
  finishing_ = true;
  for (engine::RequestState* r : parked_) {
    r->parked = false;
    FailFast(r);
  }
  parked_.clear();
  finishing_ = false;
  // Close downtime intervals still open at the end of the run.
  const double end = end_time;
  for (auto& since : prefill_down_since_) {
    if (since.has_value()) {
      fault_stats().downtime_seconds += end - *since;
      *since = end;  // a later Run() accrues only its own share
    }
  }
  for (auto& since : decode_down_since_) {
    if (since.has_value()) {
      fault_stats().downtime_seconds += end - *since;
      *since = end;
    }
  }
  for (auto& since : link_down_since_) {
    if (since.has_value()) {
      fault_stats().downtime_seconds += end - *since;
      *since = end;
    }
  }
  if (completed_ + static_cast<int64_t>(collector_.NeverCompletedCount()) !=
      static_cast<int64_t>(states_.size())) {
    std::array<int, 11> by_phase{};
    for (const auto& state : states_) {
      by_phase[static_cast<size_t>(state->phase)]++;
    }
    DS_CHECK(false) << "requests lost in flight: the simulation deadlocked (completed="
                    << completed_ << " lost=" << collector_.lost_count()
                    << " cancelled=" << collector_.cancelled_count()
                    << " timed_out=" << collector_.timed_out_count() << " of "
                    << states_.size() << "; phases: pending=" << by_phase[0]
                    << " prefill_queued=" << by_phase[1] << " prefilling=" << by_phase[2]
                    << " decode_pending=" << by_phase[3] << " transferring=" << by_phase[4]
                    << " decoding=" << by_phase[5] << " done=" << by_phase[6]
                    << " lost=" << by_phase[7] << " cancelled=" << by_phase[8]
                    << " timed_out=" << by_phase[9] << ")";
  }
  return std::move(collector_);
}

}  // namespace distserve::serving
