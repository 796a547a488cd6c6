// Egress: the send side of one peer — an AH participant, a relay leg or a
// session's TCP uplink. One struct per peer holds the transport callbacks,
// the RFC 4571 stream carry and the UDP TX queue, so AH, relay and session
// share one implementation of "send a packet to this peer".
//
// UDP: send() queues header-plus-view packets for the current turn and
// flush() drains them in one batch call, else packet by packet, else as
// serialised datagrams. Control datagrams and retransmissions leave at once.
//
// TCP: every outgoing packet — media, control or repair — is RFC 4571
// framed behind the unwritten tail of earlier partial writes (the carry),
// so frames are never torn and never spliced into each other. With a gather
// callback the carry, the frame's length prefix and the packet go to the
// transport as one offer and only the unaccepted suffix is re-staged;
// without one the framed bytes are staged into the carry and written with
// write_stream.
//
// Every operation returns the bytes it staged (copied into a buffer the
// egress owns); callers add them to their own payload_bytes_copied. Policy
// (§7 backlog gates, §4.3 token buckets) lives in rate::Link, which wraps
// one Egress; drops and stats stay with the callers.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "rtp/packet_view.hpp"
#include "util/bytes.hpp"

namespace ads {

/// Transport callbacks for one peer. The callbacks abstract the simulated
/// network (or any other transport); unset optional callbacks select the
/// fallbacks documented on each.
struct Endpoint {
  /// Transport family of this endpoint.
  enum class Kind { kUdp, kTcp };
  Kind kind = Kind::kUdp;
  /// UDP: transmit one datagram (control traffic and the fallback for
  /// view-unaware endpoints). Return false if dropped before the wire.
  std::function<bool(BytesView)> send_datagram;
  /// UDP, optional zero-copy path: transmit one header-plus-view packet
  /// without materialising it up front.
  std::function<bool(const PacketView&)> send_packet;
  /// UDP, optional: drain one turn's queued packets in a single call (in
  /// order); returns how many the transport accepted.
  std::function<std::size_t(std::span<const PacketView>)> send_packet_batch;
  /// TCP: non-blocking stream write; returns bytes accepted.
  std::function<std::size_t(BytesView)> write_stream;
  /// TCP, optional: gather-write — offer the concatenation of `parts` as one
  /// stream write and return bytes accepted.
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
  /// Drain the UDP queue: one send_packet_batch call, else send_packet per
  /// packet, else serialised send_datagram calls (the only UDP path that
  /// stages bytes). Returns bytes staged.
  std::size_t flush();
  /// A packet held as contiguous bytes (RTCP, BFCP, a participant's HIP
  /// uplink). UDP: one datagram, now. TCP: framed behind the carry exactly
  /// like media. Returns bytes staged.
  std::size_t send_control(BytesView packet);
  /// Retransmission, sent now. UDP: send_packet, else a serialised
  /// datagram. TCP: framed behind the carry. Returns bytes staged.
  std::size_t send_now(const PacketView& v);
  /// Offer the carry to the transport on its own (write_stream, else a
  /// one-part gather) and keep whatever it does not accept.
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

  Endpoint ep_;
  Bytes carry_;                    ///< unwritten tail of partial TCP writes
  std::vector<PacketView> queue_;  ///< this turn's UDP packets
};

}  // namespace ads
