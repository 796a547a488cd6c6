// Sender- and receiver-side RTP session state (RFC 3550 subset sufficient
// for the draft): sequence number assignment, 90 kHz timestamps with random
// unpredictable initial values (§5.1.1/§6.1.1), and receiver-side loss
// accounting that feeds Generic NACK generation.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "buf/buf.hpp"
#include "rtp/packet_view.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"
#include "util/prng.hpp"

namespace ads {

/// Microseconds since an arbitrary epoch (the simulator's SimTime; any
/// monotonic microsecond clock works).
using SimTimeUs = std::uint64_t;

/// Converts a microsecond duration to 90 kHz RTP ticks.
constexpr std::uint32_t us_to_rtp_ticks(std::uint64_t microseconds) {
  return static_cast<std::uint32_t>(microseconds * (kRtpClockHz / 1000) / 1000);
}

/// Outbound RTP stream: stamps packets with consecutive sequence numbers
/// and clock-derived timestamps.
class RtpSender {
 public:
  /// `seed` drives the randomised SSRC and initial sequence/timestamp.
  RtpSender(std::uint8_t payload_type, std::uint64_t seed);

  std::uint32_t ssrc() const { return ssrc_; }
  std::uint16_t next_sequence() const { return next_seq_; }

  /// Build (and account) the next packet. `now_us` is the sender clock;
  /// the RTP timestamp is initial_ts + 90 kHz ticks since stream start.
  RtpPacket make_packet(Bytes payload, bool marker, std::uint64_t now_us);

  /// Zero-copy variant of make_packet: stamps the same header fields onto a
  /// PacketView whose payload is `buf[offset, offset + length)`. Sequence,
  /// timestamp and the packets/bytes accounting advance exactly as for
  /// make_packet, so the two forms are interchangeable on one stream.
  PacketView make_view(bool marker, std::uint64_t now_us, buf::BufRef buf,
                       std::size_t offset, std::size_t length);

  /// Timestamp that make_packet would use at `now_us` — needed because all
  /// fragments of one RegionUpdate must share one timestamp (§5.1.1).
  std::uint32_t timestamp_at(std::uint64_t now_us) const;

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  std::uint8_t payload_type_;
  std::uint32_t ssrc_;
  std::uint16_t next_seq_;
  std::uint32_t initial_timestamp_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

/// Inbound RTP stream bookkeeping: highest-seen sequence, duplicate
/// detection, the set of missing sequence numbers (for NACK), and the
/// timing of the last Sender Report (for the LSR/DLSR report fields).
///
/// Sequence-number validation follows RFC 3550 A.1: a forward jump of less
/// than kMaxDropout advances the extended highest sequence (wrapping
/// through zero increments the cycle count), a jump into the suspect zone
/// between kMaxDropout and half the sequence space is ignored until two
/// consecutive packets confirm the new position, and anything numerically
/// behind by up to half the space is treated as a reordered straggler. The
/// half-window rule matters: before it, an ancient straggler (more than
/// kMaxDropout behind) looked like a forward wrap, inflating the extended
/// sequence by 65536 and pinning the next Receiver Report's loss fields.
class RtpReceiver {
 public:
  /// Largest plausible loss burst (RFC 3550 suggests order-of-3000): a
  /// forward jump beyond this is quarantined until a consecutive packet
  /// confirms the stream really restarted there.
  static constexpr std::uint16_t kMaxDropout = 3000;
  /// Record an arriving packet. Returns false for duplicates (already seen
  /// or already delivered). When `arrival_us` is supplied, interarrival
  /// jitter is maintained per RFC 3550 §6.4.1/A.8.
  bool on_packet(const RtpPacket& pkt) { return on_sequence(pkt.sequence); }
  bool on_packet(const RtpPacket& pkt, SimTimeUs arrival_us) {
    return on_arrival(pkt.sequence, pkt.timestamp, arrival_us);
  }
  /// The same for a zero-copy view: only its header is read.
  bool on_packet(const PacketView& pkt, SimTimeUs arrival_us) {
    return on_arrival(pkt.sequence(), pkt.timestamp(), arrival_us);
  }

  /// Record a Sender Report's arrival: its middle 32 NTP bits become the
  /// LSR of later report blocks, and their DLSR counts from `arrival_us`.
  void on_sender_report(const SenderReport& sr, SimTimeUs arrival_us) {
    last_sr_mid_ntp_ = static_cast<std::uint32_t>(sr.ntp_timestamp >> 16);
    last_sr_arrival_us_ = arrival_us;
  }

  /// RFC 3550 §6.4.1: hold a Sender Report's packet count against what
  /// arrived. A receiver that joined mid-stream does not know the sender's
  /// first sequence number, so the count-to-sequence offset is learned per
  /// SSRC as the smallest count − highest seen: exact once any SR arrived
  /// behind an intact tail. Returns how many packets the SR shows sent past
  /// the highest received; they are marked missing, and the highest
  /// sequence advances past them.
  std::uint16_t on_sender_count(std::uint32_t ssrc, std::uint32_t packet_count);

  /// Sequence numbers currently believed lost (between the first packet
  /// seen and the highest seen). Cleared entries reappear only if still
  /// missing. Capped at `limit` entries.
  std::vector<std::uint16_t> missing(std::size_t limit = 64) const;

  /// Forget a missing entry (e.g. recovered via retransmission or given up).
  void forget(std::uint16_t seq) { missing_.erase(seq); }
  /// Drop all loss state (e.g. after requesting a PLI full refresh).
  void reset_losses() { missing_.clear(); }

  std::uint64_t received() const { return received_; }
  std::uint64_t duplicates() const { return duplicates_; }
  bool started() const { return started_; }
  std::uint16_t highest_sequence() const { return highest_seq_; }

  /// cycles<<16 | highest sequence — the RFC 3550 extended sequence number
  /// carried in report blocks.
  std::uint32_t extended_highest_sequence() const {
    return (cycles_ << 16) | highest_seq_;
  }

  /// Interarrival jitter in RTP ticks (RFC 3550 A.8); only meaningful when
  /// packets were fed through the timed on_packet overload.
  std::uint32_t jitter() const { return static_cast<std::uint32_t>(jitter_); }

  /// Packets lost so far: expected minus received (never negative).
  std::uint32_t cumulative_lost() const;

  /// Build the RFC 3550 report block for this stream, computing the
  /// fraction lost over the interval since the previous snapshot() call,
  /// with LSR/DLSR from the last Sender Report as of `now_us`.
  ReportBlock snapshot(std::uint32_t media_ssrc, SimTimeUs now_us);

 private:
  /// Jitter update (RFC 3550 A.8), then on_sequence().
  bool on_arrival(std::uint16_t sequence, std::uint32_t timestamp,
                  SimTimeUs arrival_us);
  /// Sequence validation, loss and duplicate bookkeeping.
  bool on_sequence(std::uint16_t sequence);

  bool started_ = false;
  std::uint16_t highest_seq_ = 0;
  std::uint16_t base_seq_ = 0;
  std::uint32_t cycles_ = 0;
  std::set<std::uint16_t> missing_;
  std::set<std::uint16_t> seen_window_;  ///< recent seqs for dup detection
  // RFC 3550 A.1 probation for suspect forward jumps: the sequence that
  // would confirm the jump (previous suspect + 1), armed while valid.
  std::uint16_t bad_seq_ = 0;
  bool bad_seq_valid_ = false;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  // Jitter state (RFC 3550 A.8).
  double jitter_ = 0.0;
  std::int64_t prev_transit_ = 0;
  bool have_transit_ = false;
  // Interval state for fraction_lost.
  std::uint32_t expected_prior_ = 0;
  std::uint64_t received_prior_ = 0;
  // Last Sender Report (0 arrival = none yet).
  std::uint32_t last_sr_mid_ntp_ = 0;
  SimTimeUs last_sr_arrival_us_ = 0;
  // SR packet count − highest sequence, learned per SSRC.
  std::uint32_t count_ssrc_ = 0;
  std::uint16_t count_offset_ = 0;
  bool have_count_offset_ = false;
};

}  // namespace ads
