// Conservative-lookahead parallel discrete-event simulation (DESIGN.md §17).
//
// The simulation is partitioned into shards, each owning a private Simulator (and therefore a
// private EventQueue). Shards advance together through lookahead windows [T, T+L): T is the
// globally earliest pending event, L the lookahead. Within a window every shard runs its own
// events independently — in parallel on a ThreadPool when one is provided — because the
// protocol guarantees no cross-shard message can land inside the current window: a message
// posted by an actor at local time `s` must be timestamped `when >= s + L` (checked, loudly).
// Each shard appends the messages its actors post to its own outbox, a plain vector only that
// shard writes during a window; the window barrier publishes the outboxes, and the messages
// are delivered there in the canonical order (when, sender, seq). The sender id is a stable
// actor identity registered up front and the seq is per-sender, so the merge order — and with
// it every downstream event-queue tie-break — is independent of how actors are mapped to
// shards and of the thread count. One shard with no pool degenerates to the familiar
// single-queue loop (same EventQueue, windows traversed inline); the identical message
// discipline at every shard count is what makes results bit-identical across them.
//
// What this core does NOT do: partition an existing monolithic simulation automatically. The
// serving layer opts in by constructing independent actor groups on shard(i) and exchanging
// only Post()ed messages across groups (serving/fleet.h).
#ifndef DISTSERVE_SIMCORE_SHARDED_SIMULATOR_H_
#define DISTSERVE_SIMCORE_SHARDED_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "simcore/simulator.h"

namespace distserve::simcore {

class ShardedSimulator {
 public:
  struct Options {
    int num_shards = 1;
    // Conservative lookahead L in virtual seconds: the minimum latency of any cross-shard
    // interaction. Every Post must satisfy when >= sender_now + L.
    SimTime lookahead = 1e-3;
    // Runs each window's shards with ParallelFor when non-null and it has workers; windows
    // run inline on the caller otherwise (the single-core / 1-shard fallback).
    ThreadPool* pool = nullptr;
  };

  struct ShardStats {
    int64_t events = 0;        // events fired on this shard
    int64_t messages_in = 0;   // messages delivered to this shard
    int64_t messages_out = 0;  // messages posted by senders living on this shard
  };

  struct Stats {
    int64_t sync_rounds = 0;     // lookahead windows executed
    int64_t messages = 0;        // total Post()ed messages delivered, same-shard included
    // Always 0: outboxes grow instead of spilling. Kept only because perfbench reports it.
    int64_t channel_spills = 0;
    std::vector<ShardStats> shards;
  };

  explicit ShardedSimulator(const Options& options);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  SimTime lookahead() const { return lookahead_; }

  // The shard's private simulator; actors assigned to shard i schedule their local work here.
  Simulator* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  const Simulator& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }

  // Registers an actor that will Post cross-shard messages from `shard`. The returned sender
  // id is the actor's stable identity in the merge order — register senders in a fixed,
  // shard-mapping-independent order (e.g. router first, then groups by index) or determinism
  // across mappings is forfeit.
  int AddSender(int shard);

  // Posts `fn` to run on `dst_shard` at absolute virtual time `when`. Must be called from
  // `sender`'s own shard (i.e. from within one of its events) during a window, with
  // when >= sender's now() + lookahead — a violation aborts: late messages must fail loudly,
  // never silently reorder. Same-shard posts obey the same discipline so that the delivery
  // order is identical at every shard count. Templated so the callable is built in place in
  // the outbox — every InlineFunction relocation costs an indirect call, and the 1-shard
  // fallback's overhead budget is tight.
  template <typename F>
  void Post(int sender, int dst_shard, SimTime when, F&& fn) {
    const int src_shard = CheckPost(sender, dst_shard, when);
    outboxes_[static_cast<size_t>(src_shard)].emplace_back(
        when, static_cast<int32_t>(sender), static_cast<int32_t>(dst_shard),
        sender_seq_[static_cast<size_t>(sender)]++, std::forward<F>(fn));
  }

  // Runs windows until every shard is idle and no message is in flight. Returns the total
  // number of events processed. Call at most once concurrently (reentrancy is not a thing
  // a DES needs).
  int64_t Run();

  // Max over shards of last fired event time: the canonical end-of-run timestamp, independent
  // of shard count (each shard's now() ends pinned to its last window edge instead).
  SimTime last_event_time() const;

  const Stats& stats() const { return stats_; }

 private:
  struct Message {
    SimTime when = 0.0;
    int32_t sender = -1;
    int32_t dst = 0;  // destination shard
    int64_t seq = 0;  // per-sender, assigned at Post in program order
    EventCallback fn;
  };

  // The non-template half of Post: validates the lookahead contract, bumps the sender
  // shard's stats, and returns that shard. Inline: it runs once per message and the 1-shard
  // fallback's overhead budget has no room for an out-of-line call here.
  int CheckPost(int sender, int dst_shard, SimTime when) {
    DS_CHECK(sender >= 0 && sender < static_cast<int>(sender_shard_.size()))
        << "unregistered sender " << sender;
    DS_CHECK(dst_shard >= 0 && dst_shard < num_shards());
    const int src_shard = sender_shard_[static_cast<size_t>(sender)];
    const Simulator* src = shards_[static_cast<size_t>(src_shard)].get();
    // The conservative-lookahead contract. Exact-FP safe for callers that add a latency
    // >= lookahead to now(): addition is monotone in the addend under one rounding.
    DS_CHECK(when >= src->now() + lookahead_)
        << "lookahead violation: sender " << sender << " on shard " << src_shard << " at t="
        << src->now() << " posted a message for t=" << when << " < now + lookahead ("
        << lookahead_ << ")";
    ++stats_.shards[static_cast<size_t>(src_shard)].messages_out;
    return src_shard;
  }

  // Drains every outbox and schedules the messages onto their destination shards in
  // (when, sender, seq) order. Returns the number of messages delivered.
  int64_t DeliverPending();

  static bool MessageBefore(const Message& a, const Message& b);

  // Fills order_scratch_ with the indices of `messages` in canonical message order.
  void SortIndices(const std::vector<Message>& messages);

  SimTime lookahead_;
  ThreadPool* pool_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  // One per source shard: written only by that shard during a window, read only by the
  // merge after the barrier.
  std::vector<std::vector<Message>> outboxes_;
  std::vector<int> sender_shard_;
  std::vector<int64_t> sender_seq_;
  std::vector<Message> merge_scratch_;
  std::vector<uint32_t> order_scratch_;
  Stats stats_;
};

}  // namespace distserve::simcore

#endif  // DISTSERVE_SIMCORE_SHARDED_SIMULATOR_H_
