#include "simcore/sharded_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace distserve::simcore {

ShardedSimulator::ShardedSimulator(const Options& options)
    : lookahead_(options.lookahead), pool_(options.pool) {
  DS_CHECK_GE(options.num_shards, 1);
  DS_CHECK(options.lookahead > 0.0) << "conservative lookahead must be positive";
  shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  outboxes_.resize(shards_.size());
  stats_.shards.resize(shards_.size());
}

int ShardedSimulator::AddSender(int shard) {
  DS_CHECK(shard >= 0 && shard < num_shards());
  sender_shard_.push_back(shard);
  sender_seq_.push_back(0);
  return static_cast<int>(sender_shard_.size()) - 1;
}

// Canonical merge order: time, then stable sender identity, then the sender's own program
// order. No component of the key depends on the shard mapping or thread count, and ties
// between distinct senders at equal time are resolved identically everywhere — this is the
// whole determinism argument (DESIGN.md §17). (sender, seq) is unique, so the order is total
// and an unstable sort is safe.
bool ShardedSimulator::MessageBefore(const Message& a, const Message& b) {
  if (a.when != b.when) {
    return a.when < b.when;
  }
  if (a.sender != b.sender) {
    return a.sender < b.sender;
  }
  return a.seq < b.seq;
}

// Sorting indices instead of the elements keeps the inline callables in place: every Message
// move is an indirect manage call on its InlineFunction, and a small insertion sort does a
// quadratic number of moves — measurably the hottest part of delivery before this change.
void ShardedSimulator::SortIndices(const std::vector<Message>& messages) {
  const uint32_t n = static_cast<uint32_t>(messages.size());
  order_scratch_.clear();
  order_scratch_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    order_scratch_.push_back(i);
  }
  const auto before = [&messages](uint32_t a, uint32_t b) {
    return MessageBefore(messages[a], messages[b]);
  };
  // A typical delivery round holds a handful of messages, where std::sort's dispatch overhead
  // costs more than the sort itself; hand-rolled insertion keeps the per-window cost flat.
  if (n <= 16) {
    for (uint32_t i = 1; i < n; ++i) {
      const uint32_t v = order_scratch_[i];
      uint32_t j = i;
      while (j > 0 && before(v, order_scratch_[j - 1])) {
        order_scratch_[j] = order_scratch_[j - 1];
        --j;
      }
      order_scratch_[j] = v;
    }
  } else {
    std::sort(order_scratch_.begin(), order_scratch_.end(), before);
  }
}

int64_t ShardedSimulator::DeliverPending() {
  // With one shard every message sits in outbox 0, so it is sorted and scheduled in place —
  // one fewer move per message. Otherwise the outboxes are gathered into one merge list.
  std::vector<Message>* pending = &outboxes_[0];
  if (outboxes_.size() > 1) {
    merge_scratch_.clear();
    for (std::vector<Message>& outbox : outboxes_) {
      for (Message& msg : outbox) {
        merge_scratch_.push_back(std::move(msg));
      }
      outbox.clear();
    }
    pending = &merge_scratch_;
  }
  if (pending->empty()) {
    return 0;
  }
  SortIndices(*pending);
  for (const uint32_t idx : order_scratch_) {
    Message& msg = (*pending)[idx];
    Simulator* dst = shards_[static_cast<size_t>(msg.dst)].get();
    // The receive-side detector: with the Post-side check this cannot fire, but a late
    // message silently rewriting history would be worse than an abort.
    DS_CHECK(msg.when >= dst->now()) << "late delivery: message for t=" << msg.when
                                     << " reached shard " << msg.dst << " at t=" << dst->now();
    ++stats_.shards[static_cast<size_t>(msg.dst)].messages_in;
    dst->ScheduleAt(msg.when, std::move(msg.fn));
  }
  const int64_t delivered = static_cast<int64_t>(pending->size());
  stats_.messages += delivered;
  pending->clear();
  return delivered;
}

int64_t ShardedSimulator::Run() {
  const int s = num_shards();
  const bool parallel = pool_ != nullptr && pool_->num_workers() > 0 && s > 1;
  int64_t total = 0;
  if (s == 1) {
    // 1-shard fallback: the window structure (and with it sync_rounds and the barrier-ordered
    // delivery) is preserved exactly — only the min-over-shards and multi-shard bookkeeping
    // drop out of the per-window cost.
    Simulator* shard = shards_[0].get();
    while (true) {
      DeliverPending();
      const SimTime t = shard->NextTime();
      if (!std::isfinite(t)) {
        break;
      }
      ++stats_.sync_rounds;
      stats_.shards[0].events += shard->RunBefore(t + lookahead_);
    }
    return shard->events_processed();
  }
  while (true) {
    DeliverPending();
    SimTime t = std::numeric_limits<SimTime>::infinity();
    for (const auto& shard : shards_) {
      t = std::min(t, shard->NextTime());
    }
    if (!std::isfinite(t)) {
      break;  // globally idle and no message in flight
    }
    const SimTime end = t + lookahead_;
    ++stats_.sync_rounds;
    // At fleet event densities most windows hold work for a single shard (the global min is
    // one shard's next event; nothing else falls inside [t, t+L)). A ParallelFor barrier per
    // window would then dominate the whole run, so the pool is engaged only when the window
    // has multi-shard work to overlap. Which thread runs a shard never affects the result —
    // shards are independent within a window and the outbox merge fixes delivery order.
    int active = 0;
    for (const auto& shard : shards_) {
      active += shard->NextTime() < end ? 1 : 0;
    }
    if (parallel && active > 1) {
      // ParallelFor is the window barrier: it returns only when every shard has advanced to
      // the window edge, which also publishes the shards' outbox writes to this thread.
      pool_->ParallelFor(s, [this, end](int64_t i) {
        stats_.shards[static_cast<size_t>(i)].events +=
            shards_[static_cast<size_t>(i)]->RunBefore(end);
      });
    } else {
      for (int i = 0; i < s; ++i) {
        stats_.shards[static_cast<size_t>(i)].events +=
            shards_[static_cast<size_t>(i)]->RunBefore(end);
      }
    }
  }
  for (const auto& shard : shards_) {
    total += shard->events_processed();
  }
  return total;
}

SimTime ShardedSimulator::last_event_time() const {
  SimTime t = 0.0;
  for (const auto& shard : shards_) {
    t = std::max(t, shard->last_event_time());
  }
  return t;
}

}  // namespace distserve::simcore
