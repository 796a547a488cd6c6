// Egress: the send side of one peer — an AH participant, a relay leg or a
// session's TCP uplink. One struct per peer holds the transport callbacks,
// the RFC 4571 stream carry and the UDP TX queue, so AH, relay and session
// share one implementation of "send a packet to this peer".
//
// UDP: send() queues header-plus-view packets for the current turn and
// flush() drains them in one send_packet_batch call; a retransmission is a
// batch of one, sent at once. Control packets leave as single datagrams.
//
// TCP: every outgoing packet — media, control or repair — is RFC 4571
// framed behind the unwritten tail of earlier partial writes (the carry),
// so frames are never torn and never spliced into each other. The carry,
// the frame's length prefix and the packet go to the transport as one
// gather offer, and only the unaccepted suffix is re-staged.
//
// TCP sends return the bytes they staged (copied into the carry); callers
// add them to their own payload_bytes_copied. UDP never stages. Policy (§7
// backlog gates, §4.3 token buckets) lives in rate::Link, which wraps one
// Egress; drops and stats stay with the callers.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "rtp/packet_view.hpp"
#include "util/bytes.hpp"

namespace ads {

/// Transport callbacks for one peer: a UDP peer uses send_datagram and
/// send_packet_batch, a TCP peer write_gather and backlog. The callbacks
/// abstract the simulated network (or any other transport); an unset
/// callback sends nothing.
struct Endpoint {
  /// Transport family of this endpoint.
  enum class Kind { kUdp, kTcp };
  Kind kind = Kind::kUdp;
  /// UDP: transmit one contiguous control datagram (RTCP, BFCP, a HIP
  /// uplink). Return false if dropped before the wire.
  std::function<bool(BytesView)> send_datagram;
  /// UDP: transmit header-plus-view media packets in order in one call —
  /// a turn's queue, or one retransmission. Returns how many the transport
  /// accepted.
  std::function<std::size_t(std::span<const PacketView>)> send_packet_batch;
  /// TCP: gather-write — offer the concatenation of `parts` as one
  /// non-blocking stream write and return bytes accepted.
  std::function<std::size_t(std::span<const BytesView>)> write_gather;
  /// TCP: current send-buffer backlog in bytes (the §7 select() signal).
  std::function<std::size_t()> backlog;
};

/// One peer's send path: its Endpoint, RFC 4571 stream carry and UDP TX
/// queue. Single-threaded, like the event loop that drives it.
class Egress {
 public:
  /// An endpoint-less UDP egress: sends go nowhere.
  Egress() = default;
  /// Own `endpoint`; the carry and queue start empty.
  explicit Egress(Endpoint endpoint) : ep_(std::move(endpoint)) {}

  /// True for a stream (RFC 4571-framed) endpoint.
  bool tcp() const { return ep_.kind == Endpoint::Kind::kTcp; }

  /// Media packet. UDP: queued until flush(). TCP: framed behind the carry
  /// and written now. Returns bytes staged.
  std::size_t send(const PacketView& v);
  /// Drain the UDP queue in one send_packet_batch call.
  void flush();
  /// A packet held as contiguous bytes (RTCP, BFCP, a participant's HIP
  /// uplink). UDP: one datagram, now. TCP: framed behind the carry exactly
  /// like media. Returns bytes staged.
  std::size_t send_control(BytesView packet);
  /// Retransmission, sent now. UDP: a batch of one. TCP: framed behind the
  /// carry. Returns bytes staged.
  std::size_t send_now(const PacketView& v);
  /// Offer the carry to the transport on its own and keep whatever it does
  /// not accept.
  void drain_carry();
  /// The endpoint's send-buffer backlog plus the carry, in bytes.
  std::size_t backlog() const;
  /// Bytes of earlier partial writes still waiting to be written.
  std::size_t carry_bytes() const { return carry_.size(); }
  /// Discard the carry and the UDP queue: the stream they belonged to is
  /// gone, and a torn frame must never prefix its replacement.
  void clear();

 private:
  /// Write one RFC 4571 frame — `head` (starting with the length prefix)
  /// then `body` — behind the carry. Drops (and logs) packets whose
  /// `length` does not fit the 16-bit prefix.
  std::size_t write_frame(std::size_t length, BytesView head, BytesView body);
  /// Offer the carry followed by `frame` as one gather write and re-stage
  /// the unaccepted suffix as the new carry. Returns its size.
  std::size_t write(std::span<const BytesView> frame);

  Endpoint ep_;
  Bytes carry_;                    ///< unwritten tail of partial TCP writes
  std::vector<PacketView> queue_;  ///< this turn's UDP packets
};

}  // namespace ads
