// Content-addressed cache of encoded RegionUpdate payloads (the WebNC
// tile-hash idea applied at band granularity): before compressing a damage
// band the AH looks its pixel hash up here, so PLI full refreshes, late
// joiners, and periodically repeating content (blinking cursors, slideshow
// loops) are served from memory instead of re-running the codec.
//
// Keys combine the 64-bit pixel hash with the band geometry, the codec
// payload type, and the encode quality step, so two codecs (or two quality
// rungs of the same lossy codec, as the ads::rate ladder moves) never
// alias, and a hash collision additionally requires identical dimensions.
// Entries are LRU-evicted to honour a byte budget (payload bytes, not
// entry count).
#pragma once

#include <cstdint>
#include <list>
#include <map>

#include "util/bytes.hpp"

namespace ads {

/// Cache key: pixel content, geometry, codec, and quality step.
struct EncodedRegionKey {
  std::uint64_t content_hash = 0;  ///< hash_rect() of the band's pixels
  std::uint8_t content_pt = 0;     ///< codec payload type
  std::uint8_t quality = 0;        ///< encode quality step (0 = codec default)
  std::uint32_t width = 0;
  std::uint32_t height = 0;

  friend auto operator<=>(const EncodedRegionKey&, const EncodedRegionKey&) = default;
};

/// LRU byte-budgeted store of encoded band payloads, keyed by content.
class EncodedRegionCache {
 public:
  /// `max_bytes` bounds the sum of cached payload sizes; 0 disables caching
  /// entirely (find always misses, insert is a no-op).
  explicit EncodedRegionCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Copy-out lookup: on a miss returns false and leaves `out` alone; on a
  /// hit copies the payload into `out` (replacing its contents), promotes
  /// the entry to most-recently-used and returns true. A copy cannot
  /// dangle across later insert()/clear() calls, which the encoder's
  /// lookup-then-insert passes rely on.
  bool find(const EncodedRegionKey& key, Bytes& out);

  /// Store `payload` under `key` (replacing any previous entry), then evict
  /// least-recently-used entries until the byte budget holds. Payloads
  /// larger than the whole budget are not cached.
  void insert(const EncodedRegionKey& key, Bytes payload);

  /// Drop every entry (the byte budget is unchanged).
  void clear();

  /// Sum of cached payload sizes in bytes.
  std::size_t bytes() const { return bytes_; }
  /// Number of cached entries.
  std::size_t entries() const { return index_.size(); }
  /// The configured byte budget.
  std::size_t max_bytes() const { return max_bytes_; }
  /// Entries evicted to honour the budget since construction.
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    EncodedRegionKey key;
    Bytes payload;
  };

  void evict_to_budget();

  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::map<EncodedRegionKey, std::list<Entry>::iterator> index_;
};

}  // namespace ads
