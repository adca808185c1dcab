#include "placement/goodput_cache.h"

namespace distserve::placement {

std::optional<double> GoodputCache::Lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void GoodputCache::CountLookup(bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(hit ? hits_ : misses_);
}

void GoodputCache::Insert(const std::string& key, double goodput) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[key] = goodput;
  ++mutations_;
}

std::optional<double> GoodputCache::RateHint(const std::string& config_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hints_.find(config_key);
  if (it == hints_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void GoodputCache::UpdateRateHint(const std::string& config_key, double goodput) {
  std::lock_guard<std::mutex> lock(mu_);
  hints_[config_key] = goodput;
  ++mutations_;
}

GoodputCache::Stats GoodputCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.entries = static_cast<int64_t>(values_.size());
  stats.hint_entries = static_cast<int64_t>(hints_.size());
  return stats;
}

GoodputCache::Snapshot GoodputCache::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot{values_, hints_};
}

void GoodputCache::Merge(const Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, value] : snapshot.values) {
    values_.emplace(key, value);  // no-op when the key is already present
  }
  for (const auto& [key, value] : snapshot.hints) {
    hints_.emplace(key, value);
  }
  ++mutations_;
}

void GoodputCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  values_.clear();
  hints_.clear();
  ++mutations_;
}

int64_t GoodputCache::mutations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mutations_;
}

void GoodputCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace distserve::placement
