#include "rtp/rtp_session.hpp"

namespace ads {

RtpSender::RtpSender(std::uint8_t payload_type, std::uint64_t seed)
    : payload_type_(payload_type) {
  Prng rng(seed);
  ssrc_ = rng.next_u32();
  next_seq_ = static_cast<std::uint16_t>(rng.next_u32());
  initial_timestamp_ = rng.next_u32();
}

std::uint32_t RtpSender::timestamp_at(std::uint64_t now_us) const {
  return initial_timestamp_ + us_to_rtp_ticks(now_us);
}

RtpPacket RtpSender::make_packet(Bytes payload, bool marker, std::uint64_t now_us) {
  RtpPacket pkt;
  pkt.marker = marker;
  pkt.payload_type = payload_type_;
  pkt.sequence = next_seq_++;
  pkt.timestamp = timestamp_at(now_us);
  pkt.ssrc = ssrc_;
  pkt.payload = std::move(payload);
  ++packets_sent_;
  bytes_sent_ += pkt.wire_size();
  return pkt;
}

PacketView RtpSender::make_view(bool marker, std::uint64_t now_us,
                                buf::BufRef buf, std::size_t offset,
                                std::size_t length) {
  PacketView v = PacketView::build(marker, payload_type_, next_seq_++,
                                   timestamp_at(now_us), ssrc_, std::move(buf),
                                   offset, length);
  ++packets_sent_;
  bytes_sent_ += v.wire_size();
  return v;
}

bool RtpReceiver::on_arrival(std::uint16_t sequence, std::uint32_t timestamp,
                             SimTimeUs arrival_us) {
  // RFC 3550 A.8 interarrival jitter, in 90 kHz ticks.
  const std::int64_t arrival_ticks =
      static_cast<std::int64_t>(us_to_rtp_ticks(arrival_us));
  const std::int64_t transit =
      arrival_ticks - static_cast<std::int64_t>(timestamp);
  if (have_transit_) {
    std::int64_t d = transit - prev_transit_;
    if (d < 0) d = -d;
    jitter_ += (static_cast<double>(d) - jitter_) / 16.0;
  }
  prev_transit_ = transit;
  have_transit_ = true;
  return on_sequence(sequence);
}

std::uint32_t RtpReceiver::cumulative_lost() const {
  const std::uint32_t expected =
      extended_highest_sequence() -
      ((0u << 16) | base_seq_) + 1;  // cycles of base are 0 by construction
  if (received_ >= expected) return 0;
  return expected - static_cast<std::uint32_t>(received_);
}

ReportBlock RtpReceiver::snapshot(std::uint32_t media_ssrc, SimTimeUs now_us) {
  ReportBlock block;
  block.ssrc = media_ssrc;
  block.ext_highest_seq = extended_highest_sequence();
  block.jitter = jitter();
  block.cumulative_lost = cumulative_lost() & 0xFFFFFF;
  // RFC 3550 §6.4.1: DLSR in units of 1/65536 s.
  block.last_sr = last_sr_mid_ntp_;
  if (last_sr_arrival_us_ != 0) {
    block.delay_since_last_sr = static_cast<std::uint32_t>(
        (now_us - last_sr_arrival_us_) * 65536 / 1'000'000);
  }

  // Fraction lost over the interval since the last snapshot (RFC 3550 A.3).
  const std::uint32_t expected = extended_highest_sequence() - base_seq_ + 1;
  const std::uint32_t expected_interval = expected - expected_prior_;
  const std::uint64_t received_interval = received_ - received_prior_;
  expected_prior_ = expected;
  received_prior_ = received_;
  if (expected_interval > 0 && received_interval < expected_interval) {
    const std::uint32_t lost =
        expected_interval - static_cast<std::uint32_t>(received_interval);
    block.fraction_lost = static_cast<std::uint8_t>((lost << 8) / expected_interval);
  }
  return block;
}

bool RtpReceiver::on_sequence(std::uint16_t sequence) {
  if (!started_) {
    started_ = true;
    highest_seq_ = sequence;
    base_seq_ = sequence;
    seen_window_.insert(sequence);
    ++received_;
    return true;
  }

  if (seen_window_.count(sequence)) {
    ++duplicates_;
    return false;
  }

  // RFC 3550 A.1-style validation on the unsigned modular delta.
  const std::uint16_t udelta =
      static_cast<std::uint16_t>(sequence - highest_seq_);
  if (udelta > 0 && udelta < kMaxDropout) {
    // In order, possibly with a plausible gap: every skipped number between
    // highest+1 and the new packet is missing.
    for (std::uint16_t s = static_cast<std::uint16_t>(highest_seq_ + 1);
         s != sequence; ++s) {
      missing_.insert(s);
    }
    if (sequence < highest_seq_) ++cycles_;  // 16-bit wrap
    highest_seq_ = sequence;
    bad_seq_valid_ = false;
  } else if (udelta != 0 && udelta <= 0x8000) {
    // Suspect zone: either a genuine restart after a very large burst, or
    // an ancient straggler from more than half a window back. Advancing on
    // the straggler would inflate the extended sequence by a whole cycle
    // and regress highest_seq_, so require two consecutive packets before
    // accepting the new position.
    if (bad_seq_valid_ && sequence == bad_seq_) {
      if (sequence < highest_seq_) ++cycles_;  // restart crossed a wrap
      highest_seq_ = sequence;
      bad_seq_valid_ = false;
      // A gap this wide is beyond NACK repair; the escalation ladder (PLI
      // full refresh) owns recovery, so do not enumerate it as missing.
      missing_.clear();
    } else {
      bad_seq_ = static_cast<std::uint16_t>(sequence + 1);
      bad_seq_valid_ = true;
    }
  } else {
    // Behind by at most half a window, or the highest itself when a Sender
    // Report marked it missing: a late packet fills (or re-fills) a gap.
    // Never a wrap.
    missing_.erase(sequence);
  }

  seen_window_.insert(sequence);
  // Bound duplicate-detection memory: keep roughly one wrap of history,
  // evicting the modularly oldest entry — after a wrap that is the smallest
  // sequence *above* the current highest, not *begin().
  while (seen_window_.size() > 4096) {
    auto oldest = seen_window_.upper_bound(highest_seq_);
    if (oldest == seen_window_.end()) oldest = seen_window_.begin();
    seen_window_.erase(oldest);
  }
  ++received_;
  return true;
}

std::uint16_t RtpReceiver::on_sender_count(std::uint32_t ssrc,
                                           std::uint32_t packet_count) {
  const auto offset = static_cast<std::uint16_t>(packet_count - highest_seq_);
  const auto tail = static_cast<std::uint16_t>(offset - count_offset_);
  if (!have_count_offset_ || ssrc != count_ssrc_ || tail >= 0x8000) {
    // First SR of this stream, or one showing less outstanding than the
    // offset assumed: an earlier SR had a lost tail.
    count_ssrc_ = ssrc;
    count_offset_ = offset;
    have_count_offset_ = true;
    return 0;
  }
  if (tail == 0 || tail >= kMaxDropout) return 0;
  for (std::uint16_t i = 1; i <= tail; ++i) {
    missing_.insert(static_cast<std::uint16_t>(highest_seq_ + i));
  }
  const auto last = static_cast<std::uint16_t>(highest_seq_ + tail);
  if (last < highest_seq_) ++cycles_;  // 16-bit wrap
  highest_seq_ = last;
  return tail;
}

std::vector<std::uint16_t> RtpReceiver::missing(std::size_t limit) const {
  std::vector<std::uint16_t> out;
  for (std::uint16_t s : missing_) {
    if (out.size() >= limit) break;
    out.push_back(s);
  }
  return out;
}

}  // namespace ads
