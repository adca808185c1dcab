// Persistent memoization for per-config goodput simulations (§4.4 online replanning).
//
// A planner invocation simulates goodput for every feasible (parallelism, phase) pair; a
// replanning-triggered re-search repeats that work even though most configurations' inputs
// (model, SLO, workload distribution, search fidelity) have not changed. GoodputCache stores
// each simulated goodput under a fingerprint of everything that determines it, so unchanged
// configs cost a hash lookup on the next search.
//
// It additionally remembers the most recent goodput per configuration *ignoring* the workload
// fingerprint ("rate hints"): after a traffic drift the exact key misses, but last search's
// rate for the same config is an excellent warm start for FindMaxRate's exponential probe.
//
// Entries are a few dozen bytes each and the config space is small (hundreds), so the cache
// is unbounded; Clear() exists for explicit invalidation (e.g. after recalibration). For
// cross-process reuse, GoodputCacheStore (goodput_cache_store.h) round-trips the entry maps
// through a versioned on-disk file via Snapshot()/Merge().
#ifndef DISTSERVE_PLACEMENT_GOODPUT_CACHE_H_
#define DISTSERVE_PLACEMENT_GOODPUT_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace distserve::placement {

class GoodputCache {
 public:
  // Exact-fingerprint lookup. Thread-safe; counts nothing (see CountLookup).
  std::optional<double> Lookup(const std::string& key) const;

  // Counts one lookup's outcome in stats(). The planner counts on its fold thread, once per
  // key a fold uses, so the counters do not depend on which keys pool workers speculated on.
  void CountLookup(bool hit);

  void Insert(const std::string& key, double goodput);

  // Warm-start memory keyed by configuration alone (model + parallelism + phase), holding the
  // last goodput simulated for it under any workload.
  std::optional<double> RateHint(const std::string& config_key) const;
  void UpdateRateHint(const std::string& config_key, double goodput);

  struct Stats {
    // Lifetime hit/miss counters: they survive Clear() (a post-invalidation log must not
    // report a freshly emptied cache as having never missed); ResetStats() zeroes them.
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t entries = 0;       // current values_ size
    int64_t hint_entries = 0;  // current hints_ size
  };
  Stats stats() const;

  // Copy of the entry maps, for serialization (GoodputCacheStore) and tests.
  struct Snapshot {
    std::unordered_map<std::string, double> values;
    std::unordered_map<std::string, double> hints;
  };
  Snapshot TakeSnapshot() const;

  // Bulk-inserts entries that are not already present. In-memory entries win on key conflicts:
  // anything this process simulated is newer than anything loaded from disk.
  void Merge(const Snapshot& snapshot);

  // Drops every entry and hint (explicit invalidation). Lifetime hit/miss counters are kept —
  // use ResetStats() to zero them separately.
  void Clear();
  void ResetStats();

  // Bumped by every Insert, UpdateRateHint, Merge and Clear (whether or not it changed a
  // value). A caller that persists the cache records it after each load or save, and can
  // skip the next save when it has not moved.
  int64_t mutations() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, double> values_;
  std::unordered_map<std::string, double> hints_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t mutations_ = 0;
};

}  // namespace distserve::placement

#endif  // DISTSERVE_PLACEMENT_GOODPUT_CACHE_H_
