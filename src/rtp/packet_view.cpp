#include "rtp/packet_view.hpp"

#include <algorithm>

namespace ads {

PacketView PacketView::build(bool marker, std::uint8_t payload_type,
                             std::uint16_t sequence, std::uint32_t timestamp,
                             std::uint32_t ssrc, buf::BufRef buf,
                             std::size_t offset, std::size_t length) {
  PacketView v;
  const std::size_t frame_len = kHeaderSize + length;
  v.hdr_[0] = static_cast<std::uint8_t>(frame_len >> 8);
  v.hdr_[1] = static_cast<std::uint8_t>(frame_len);
  // V=2, P=0, X=0, CC=0 — mirrors RtpPacket::serialize().
  v.hdr_[2] = 0x80;
  v.hdr_[3] =
      static_cast<std::uint8_t>((marker ? 0x80 : 0x00) | (payload_type & 0x7F));
  v.hdr_[4] = static_cast<std::uint8_t>(sequence >> 8);
  v.hdr_[5] = static_cast<std::uint8_t>(sequence);
  v.hdr_[6] = static_cast<std::uint8_t>(timestamp >> 24);
  v.hdr_[7] = static_cast<std::uint8_t>(timestamp >> 16);
  v.hdr_[8] = static_cast<std::uint8_t>(timestamp >> 8);
  v.hdr_[9] = static_cast<std::uint8_t>(timestamp);
  v.hdr_[10] = static_cast<std::uint8_t>(ssrc >> 24);
  v.hdr_[11] = static_cast<std::uint8_t>(ssrc >> 16);
  v.hdr_[12] = static_cast<std::uint8_t>(ssrc >> 8);
  v.hdr_[13] = static_cast<std::uint8_t>(ssrc);
  v.buf_ = std::move(buf);
  v.offset_ = static_cast<std::uint32_t>(offset);
  v.length_ = static_cast<std::uint32_t>(length);
  return v;
}

PacketView PacketView::adopt(buf::BufRef buf) {
  const BytesView d = buf.view();
  if (d.size() < kHeaderSize || d[0] != 0x80) return {};
  PacketView v;
  // The datagram's header is byte for byte what build() would write.
  v.hdr_[0] = static_cast<std::uint8_t>(d.size() >> 8);
  v.hdr_[1] = static_cast<std::uint8_t>(d.size());
  std::copy_n(d.begin(), kHeaderSize, v.hdr_.begin() + kFramePrefixSize);
  v.offset_ = kHeaderSize;
  v.length_ = static_cast<std::uint32_t>(d.size() - kHeaderSize);
  v.buf_ = std::move(buf);
  return v;
}

Bytes PacketView::serialize() const {
  Bytes out;
  out.reserve(wire_size());
  serialize_into(out);
  return out;
}

void PacketView::serialize_into(Bytes& dest) const {
  const BytesView hdr = header();
  const BytesView body = payload();
  dest.insert(dest.end(), hdr.begin(), hdr.end());
  dest.insert(dest.end(), body.begin(), body.end());
}

}  // namespace ads
