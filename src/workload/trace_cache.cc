#include "workload/trace_cache.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/logging.h"

namespace distserve::workload {

// A stream's first draws, immutable once published.
struct TraceCache::Draws {
  std::vector<GammaDraw> gaps;        // gaps[i] spaces request i + 1 after request i
  std::vector<LengthSample> lengths;  // lengths[i] are request i's
  Rng arrival_rng;                    // the generators' states after the last draw
  Rng length_rng;
};

struct TraceCache::Stream {
  explicit Stream(uint64_t seed)
      : draws(std::make_shared<const Draws>(
            Draws{{}, {}, Rng(seed).Fork(kArrivalStream), Rng(seed).Fork(kLengthStream)})) {}

  std::mutex grow_mu;                  // held while drawing
  std::shared_ptr<const Draws> draws;  // guarded by TraceCache::mu_
  bool resident = true;                // guarded by TraceCache::mu_; false once evicted
};

TraceCache::TraceCache(int64_t max_cached_requests)
    : max_cached_requests_(max_cached_requests) {
  DS_CHECK_GT(max_cached_requests, 0);
}

std::string TraceCache::MakeKey(const TraceSpec& spec, const Dataset& dataset) {
  // Rate and request count are not part of the key: every rate spaces the same draws, and
  // every count reads a prefix of them. Hexfloat keeps the burstiness exact.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%a|%" PRIu64 "|", spec.burstiness_cv, spec.seed);
  return std::string(buf) + dataset.identity();
}

Trace TraceCache::Get(const TraceSpec& spec, const Dataset& dataset, bool* drew) {
  DS_CHECK_GT(spec.rate, 0.0);
  DS_CHECK_GT(spec.num_requests, 0);
  const GammaArrivals arrivals(spec.rate, spec.burstiness_cv);
  const size_t n = static_cast<size_t>(spec.num_requests);
  const std::string key = MakeKey(spec, dataset);
  std::shared_ptr<Stream> stream;
  std::shared_ptr<const Draws> draws;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // move to front
      stream = it->second->stream;
    } else {
      stream = std::make_shared<Stream>(spec.seed);
      lru_.push_front(Entry{key, stream});
      index_.emplace(key, lru_.begin());
      stats_.entries = static_cast<int64_t>(lru_.size());
    }
    draws = stream->draws;
    if (draws->lengths.size() >= n) {
      ++stats_.hits;
    }
  }
  bool grew = false;
  if (draws->lengths.size() < n) {
    draws = Reserve(*stream, n, arrivals.shape(), dataset, &grew);
  }
  if (drew != nullptr) {
    *drew = grew;
  }

  // GenerateTrace's loop, with its draws read from the stream.
  Trace trace;
  trace.reserve(n);
  double clock = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      clock += arrivals.Gap(draws->gaps[i - 1]);
    }
    const LengthSample& lens = draws->lengths[i];
    trace.push_back(Request{/*id=*/static_cast<RequestId>(i), /*arrival_time=*/clock,
                            lens.input_len, lens.output_len});
  }
  return trace;
}

std::shared_ptr<const TraceCache::Draws> TraceCache::Reserve(Stream& stream, size_t n,
                                                             double shape,
                                                             const Dataset& dataset,
                                                             bool* drew) {
  std::lock_guard<std::mutex> grow(stream.grow_mu);
  std::shared_ptr<const Draws> have;
  {
    std::lock_guard<std::mutex> lock(mu_);
    have = stream.draws;
    if (have->lengths.size() >= n) {
      ++stats_.hits;  // a concurrent grower drew them while this call waited
      return have;
    }
  }
  // Draw outside the global lock: drawing dominates, and readers keep the old snapshot.
  auto next = std::make_shared<Draws>(Draws{{}, {}, have->arrival_rng, have->length_rng});
  next->gaps.reserve(n);
  next->lengths.reserve(n);
  next->gaps.assign(have->gaps.begin(), have->gaps.end());
  next->lengths.assign(have->lengths.begin(), have->lengths.end());
  while (next->lengths.size() < n) {
    next->gaps.push_back(next->arrival_rng.UnitGamma(shape));
    next->lengths.push_back(dataset.Sample(next->length_rng));
  }
  *drew = true;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  if (stream.resident) {
    stats_.cached_requests += static_cast<int64_t>(n - have->lengths.size());
  }
  stream.draws = next;
  EvictIfOverBudgetLocked();
  return next;
}

void TraceCache::EvictIfOverBudgetLocked() {
  // Never evict the sole (possibly over-budget) stream: it must stay addressable for its own
  // next probe.
  while (stats_.cached_requests > max_cached_requests_ && lru_.size() > 1) {
    Entry& victim = lru_.back();
    stats_.cached_requests -= static_cast<int64_t>(victim.stream->draws->lengths.size());
    victim.stream->resident = false;
    ++stats_.evictions;
    index_.erase(victim.key);
    lru_.pop_back();
  }
  stats_.entries = static_cast<int64_t>(lru_.size());
}

TraceCache::Stats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TraceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& entry : lru_) {
    entry.stream->resident = false;
  }
  lru_.clear();
  index_.clear();
  stats_ = Stats{};
}

}  // namespace distserve::workload
