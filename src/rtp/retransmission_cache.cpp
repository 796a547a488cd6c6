#include "rtp/retransmission_cache.hpp"

namespace ads {

std::size_t RetransmissionCache::put(PacketView pkt) {
  if (capacity_ == 0) return 0;
  const std::uint16_t seq = pkt.sequence();
  if (!by_seq_.insert_or_assign(seq, std::move(pkt)).second) return 0;
  order_.push_back(seq);
  std::size_t evicted = 0;
  for (; order_.size() > capacity_; ++evicted) {
    by_seq_.erase(order_.front());
    order_.pop_front();
  }
  return evicted;
}

const PacketView* RetransmissionCache::get(std::uint16_t sequence) const {
  auto it = by_seq_.find(sequence);
  return it == by_seq_.end() ? nullptr : &it->second;
}

}  // namespace ads
