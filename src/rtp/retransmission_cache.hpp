// AH-side retransmission store. When the SDP advertises
// "retransmissions=yes" (§9.3.1), the AH answers Generic NACKs by resending
// cached packets. The cache holds the most recent `capacity` packets keyed
// by sequence number.
//
// Entries are PacketViews: a cached packet holds a reference into the shared
// payload buffer it was originally sent from (ads::buf), not a copy — so N
// cohort members caching the same band pin one buffer, and putting a packet
// costs 16 bytes of header storage plus a refcount bump.
//
// The cache is a store only: its owner counts hits, misses and evictions
// in its own Stats, so those totals outlive the cache.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "rtp/packet_view.hpp"

namespace ads {

class RetransmissionCache {
 public:
  explicit RetransmissionCache(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Retain `pkt` (sharing its payload buffer) under its sequence number.
  /// Returns how many older packets were aged out to stay at `capacity`.
  std::size_t put(PacketView pkt);

  /// The cached packet for `sequence`, or nullptr if no longer retained.
  /// The pointer is valid until the next put().
  const PacketView* get(std::uint16_t sequence) const;

  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::deque<std::uint16_t> order_;
  std::unordered_map<std::uint16_t, PacketView> by_seq_;
};

}  // namespace ads
