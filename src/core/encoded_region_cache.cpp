#include "core/encoded_region_cache.hpp"

namespace ads {

bool EncodedRegionCache::find(const EncodedRegionKey& key, Bytes& out) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  out = it->second->payload;
  return true;
}

void EncodedRegionCache::insert(const EncodedRegionKey& key, Bytes payload) {
  if (payload.size() > max_bytes_) return;
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->payload.size();
    bytes_ += payload.size();
    it->second->payload = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += payload.size();
    lru_.push_front(Entry{key, std::move(payload)});
    index_[key] = lru_.begin();
  }
  evict_to_budget();
}

void EncodedRegionCache::evict_to_budget() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.payload.size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

void EncodedRegionCache::clear() {
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace ads
