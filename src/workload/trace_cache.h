// Probe traces for the placement search, drawn once per seed.
//
// FindMaxRate simulates one trace per (rate, seed) probe, and the planner runs that search
// once per candidate configuration. Two probe traces with the same seed differ only in their
// arrival scale: GenerateTrace draws lengths from their own stream (kLengthStream), and each
// Gamma gap is a unit draw scaled by 1/(rate * shape) (GammaArrivals::Gap). So TraceCache keeps
// one draw stream per (seed, burstiness, dataset identity) — the unit Gamma draws and the
// length samples — and grows it on demand. Get spaces a prefix of the stream at the probe's
// rate, which is GenerateTrace's trace bit for bit, at any rate and any request count.
//
// Streams are LRU-evicted whole by a budget on resident draws (one draw per request a stream
// can materialize, 24 bytes each). The most recently used stream is never evicted.
//
// Thread safety: all methods are safe to call concurrently. A stream's draws are an immutable
// snapshot, replaced by a longer one when the stream grows, so Get materializes a trace
// without holding any lock. Growers of one stream take turns on that stream's mutex (a later
// grower usually finds the draws it needs already there); hits never wait for a grower.
#ifndef DISTSERVE_WORKLOAD_TRACE_CACHE_H_
#define DISTSERVE_WORKLOAD_TRACE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "workload/generator.h"

namespace distserve::workload {

class TraceCache {
 public:
  // `max_cached_requests` bounds the summed stream lengths kept resident, in draws.
  explicit TraceCache(int64_t max_cached_requests = 4'000'000);

  // Returns GenerateTrace(spec, dataset), bit for bit, drawing only what the spec's stream
  // does not hold yet. `*drew`, when given, is set to whether this call drew anything.
  Trace Get(const TraceSpec& spec, const Dataset& dataset, bool* drew = nullptr);

  struct Stats {
    int64_t hits = 0;             // Gets that needed no new draws
    int64_t misses = 0;           // Gets that started or grew a stream
    int64_t evictions = 0;        // streams evicted
    int64_t cached_requests = 0;  // current residency, in draws
    int64_t entries = 0;          // resident streams
  };
  Stats stats() const;

  void Clear();

 private:
  struct Draws;
  struct Stream;
  struct Entry {
    std::string key;
    std::shared_ptr<Stream> stream;
  };
  using LruList = std::list<Entry>;

  static std::string MakeKey(const TraceSpec& spec, const Dataset& dataset);
  // The stream's draws once it holds at least `n`, growing it if needed (sets `*drew`).
  std::shared_ptr<const Draws> Reserve(Stream& stream, size_t n, double shape,
                                       const Dataset& dataset, bool* drew);
  void EvictIfOverBudgetLocked();

  const int64_t max_cached_requests_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  Stats stats_;
};

}  // namespace distserve::workload

#endif  // DISTSERVE_WORKLOAD_TRACE_CACHE_H_
