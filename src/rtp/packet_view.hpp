// Header-plus-view RTP packet for the zero-copy datapath.
//
// A PacketView owns only its 16 bytes of header storage; the payload is a
// [offset, offset+length) window into a shared, refcounted PayloadBuf
// (ads::buf). N cohort members' packets for one band — and their
// retransmission-cache entries — all point into one buffer, so payload bytes
// are written exactly once per cohort instead of once per member.
//
// Header storage layout (16 bytes, 14 used):
//   [0, 2)   RFC 4571 big-endian frame length (12 + payload length), so a
//            TCP gather write can emit {framed(), payload()} with no
//            staging copy.
//   [2, 14)  the 12-byte RTP header (RFC 3550 §5.1), bit-compatible with
//            RtpPacket::serialize().
//
// serialize()/serialize_into() materialise the classic contiguous datagram:
// a UDP channel does so when it delivers a packet, and tests use it as the
// reference bytes.
#pragma once

#include <array>
#include <cstdint>

#include "buf/buf.hpp"
#include "util/bytes.hpp"

namespace ads {

class PacketView {
 public:
  /// RTP header size on the wire (matches RtpPacket::kHeaderSize).
  static constexpr std::size_t kHeaderSize = 12;
  /// RFC 4571 length-prefix size prepended for stream transports.
  static constexpr std::size_t kFramePrefixSize = 2;

  PacketView() = default;

  /// Assemble a packet whose payload is `buf[offset, offset+length)`.
  /// `buf` is shared (refcount bumped); the caller must not resize the
  /// buffer afterwards. Payload length must fit the RFC 4571 u16 frame.
  static PacketView build(bool marker, std::uint8_t payload_type,
                          std::uint16_t sequence, std::uint32_t timestamp,
                          std::uint32_t ssrc, buf::BufRef buf,
                          std::size_t offset, std::size_t length);

  /// Adopt a received datagram without copying it: `buf` holds the whole
  /// datagram and becomes the payload buffer; the header is read from its
  /// first 12 bytes. Only the canonical fixed header this library emits
  /// (first byte 0x80: V=2, no padding, extension or CSRC) is accepted; a
  /// shorter datagram or any other first byte yields an empty view.
  static PacketView adopt(buf::BufRef buf);

  /// True when the view carries a payload buffer (default-constructed views
  /// do not).
  explicit operator bool() const { return static_cast<bool>(buf_); }

  /// The 12-byte RTP header.
  BytesView header() const { return BytesView(hdr_.data() + kFramePrefixSize, kHeaderSize); }
  /// RFC 4571 length prefix + RTP header (14 bytes) for TCP gather writes.
  BytesView framed_header() const {
    return BytesView(hdr_.data(), kFramePrefixSize + kHeaderSize);
  }
  /// The payload window into the shared buffer.
  BytesView payload() const { return buf_.slice(offset_, length_); }
  /// Datagram size: header + payload.
  std::size_t wire_size() const { return kHeaderSize + length_; }
  /// Stream size: length prefix + header + payload.
  std::size_t framed_size() const {
    return kFramePrefixSize + kHeaderSize + length_;
  }

  /// RTP sequence number (decoded from header storage).
  std::uint16_t sequence() const {
    return static_cast<std::uint16_t>(hdr_[4] << 8 | hdr_[5]);
  }
  /// RTP marker bit.
  bool marker() const { return (hdr_[3] & 0x80) != 0; }
  /// RTP payload type (7 bits).
  std::uint8_t payload_type() const { return hdr_[3] & 0x7F; }
  /// RTP timestamp.
  std::uint32_t timestamp() const {
    return static_cast<std::uint32_t>(hdr_[6]) << 24 |
           static_cast<std::uint32_t>(hdr_[7]) << 16 |
           static_cast<std::uint32_t>(hdr_[8]) << 8 | hdr_[9];
  }
  /// RTP SSRC.
  std::uint32_t ssrc() const {
    return static_cast<std::uint32_t>(hdr_[10]) << 24 |
           static_cast<std::uint32_t>(hdr_[11]) << 16 |
           static_cast<std::uint32_t>(hdr_[12]) << 8 | hdr_[13];
  }

  /// Contiguous header+payload datagram (the compatibility/oracle path —
  /// byte-identical to RtpPacket::serialize()).
  Bytes serialize() const;
  /// Append the contiguous datagram to `dest`.
  void serialize_into(Bytes& dest) const;

 private:
  std::array<std::uint8_t, 16> hdr_{};
  buf::BufRef buf_;
  std::uint32_t offset_ = 0;
  std::uint32_t length_ = 0;
};

}  // namespace ads
