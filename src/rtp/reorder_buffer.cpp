#include "rtp/reorder_buffer.hpp"

namespace ads {

std::vector<RtpPacket> ReorderBuffer::push(RtpPacket pkt) {
  if (!started_) {
    started_ = true;
    next_seq_ = pkt.sequence;
  }

  const std::uint16_t offset = static_cast<std::uint16_t>(pkt.sequence - next_seq_);
  if (offset >= 0x8000) {
    // Behind the delivery cursor: late duplicate or already-skipped packet.
    ++dropped_late_;
    return {};
  }
  if (!held_.emplace(offset, std::move(pkt)).second) {
    ++dropped_late_;  // duplicate of a held packet
    return {};
  }

  // Deliver the contiguous prefix (offsets 0,1,2,...), then rekey the
  // remaining packets once.
  std::vector<RtpPacket> out;
  std::uint16_t expect = 0;
  while (!held_.empty() && held_.begin()->first == expect) {
    out.push_back(std::move(held_.begin()->second));
    held_.erase(held_.begin());
    ++expect;
  }
  if (expect == 0) return out;
  next_seq_ = static_cast<std::uint16_t>(next_seq_ + expect);
  std::map<std::uint16_t, RtpPacket> rekeyed;
  for (auto& [off, p] : held_) {
    rekeyed.emplace(static_cast<std::uint16_t>(off - expect), std::move(p));
  }
  held_ = std::move(rekeyed);
  return out;
}

std::vector<RtpPacket> ReorderBuffer::flush_all() {
  std::vector<RtpPacket> out;
  if (held_.empty()) return out;
  const std::uint16_t last_offset = held_.rbegin()->first;
  next_seq_ = static_cast<std::uint16_t>(next_seq_ + last_offset + 1);
  for (auto& [off, p] : held_) out.push_back(std::move(p));
  held_.clear();
  return out;
}

void ReorderBuffer::reset_to(std::uint16_t next) {
  if (!held_.empty()) return;  // refuse to drop data silently
  next_seq_ = next;
  started_ = true;
}

}  // namespace ads
