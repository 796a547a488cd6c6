// In-order delivery of out-of-order RTP packets. The draft relies on RTP
// to let participants "re-order the packets, recognize missing packets"
// (§4.2); this buffer performs the reordering and holds packets behind a
// gap until the gap fills or its owner gives the gap up (flush_all()), so
// how long a gap may hold delivery is the owner's policy, not the buffer's.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "rtp/rtp_packet.hpp"

namespace ads {

class ReorderBuffer {
 public:
  /// Insert an arriving packet; returns every packet now deliverable in
  /// order (possibly none). Duplicates and packets older than the delivery
  /// cursor are dropped.
  std::vector<RtpPacket> push(RtpPacket pkt);

  /// Deliver everything held (in order, regardless of gaps) and return it.
  std::vector<RtpPacket> flush_all();

  /// Move the delivery cursor to `next` (buffer must be empty — flush
  /// first). Used after a loss-recovery full refresh to jump past a gap
  /// even when nothing newer is buffered.
  void reset_to(std::uint16_t next);

  std::size_t buffered() const { return held_.size(); }
  std::uint64_t dropped_late() const { return dropped_late_; }

  /// Sequence number the buffer is waiting to deliver next.
  std::optional<std::uint16_t> expected_sequence() const {
    return started_ ? std::optional<std::uint16_t>(next_seq_) : std::nullopt;
  }

 private:
  // Key is the modular distance from next_seq_ so iteration order matches
  // delivery order even across the 16-bit wrap.
  std::map<std::uint16_t, RtpPacket> held_;
  bool started_ = false;
  std::uint16_t next_seq_ = 0;
  std::uint64_t dropped_late_ = 0;
};

}  // namespace ads
