// PacketView: header-plus-view packets must be bit-compatible with the
// classic RtpPacket serialisation, frame correctly for RFC 4571 streams, and
// share (not copy) their payload buffer.
#include "rtp/packet_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "buf/buf.hpp"
#include "rtp/framing.hpp"
#include "rtp/rtp_packet.hpp"

namespace ads {
namespace {

buf::BufRef filled_buf(buf::BufPool& pool, std::size_t n) {
  buf::BufRef ref = pool.acquire(n);
  for (std::size_t i = 0; i < n; ++i)
    ref.bytes().push_back(static_cast<std::uint8_t>(i * 7 + 3));
  return ref;
}

TEST(PacketView, SerialisesIdenticallyToRtpPacket) {
  buf::BufPool pool;
  buf::BufRef buf = filled_buf(pool, 300);
  for (const bool marker : {false, true}) {
    const PacketView view =
        PacketView::build(marker, kRemotingPayloadType, 0xBEEF, 0x01020304,
                          0xCAFEBABE, buf, 17, 200);

    RtpPacket pkt;
    pkt.marker = marker;
    pkt.payload_type = kRemotingPayloadType;
    pkt.sequence = 0xBEEF;
    pkt.timestamp = 0x01020304;
    pkt.ssrc = 0xCAFEBABE;
    const BytesView window = buf.slice(17, 200);
    pkt.payload.assign(window.begin(), window.end());

    EXPECT_EQ(view.serialize(), pkt.serialize());
    EXPECT_EQ(view.wire_size(), pkt.wire_size());
  }
}

TEST(PacketView, AccessorsDecodeHeaderStorage) {
  buf::BufPool pool;
  const PacketView view = PacketView::build(
      true, kHipPayloadType, 0x1234, 0xA1B2C3D4, 0x55667788, pool.acquire(0), 0, 0);
  EXPECT_TRUE(view.marker());
  EXPECT_EQ(view.payload_type(), kHipPayloadType);
  EXPECT_EQ(view.sequence(), 0x1234);
  EXPECT_EQ(view.timestamp(), 0xA1B2C3D4u);
  EXPECT_EQ(view.ssrc(), 0x55667788u);
  EXPECT_EQ(view.wire_size(), PacketView::kHeaderSize);
}

TEST(PacketView, AdoptReadsTheDatagramHeaderWithoutCopying) {
  RtpPacket pkt;
  pkt.marker = true;
  pkt.payload_type = kRemotingPayloadType;
  pkt.sequence = 0xBEEF;
  pkt.timestamp = 0x01020304;
  pkt.ssrc = 0xCAFEBABE;
  pkt.payload = {1, 2, 3, 4, 5};
  const Bytes wire = pkt.serialize();

  buf::BufPool pool;
  buf::BufRef buf = pool.acquire(0);
  buf.bytes() = wire;
  const PacketView view = PacketView::adopt(buf);
  ASSERT_TRUE(view);
  EXPECT_TRUE(view.marker());
  EXPECT_EQ(view.payload_type(), kRemotingPayloadType);
  EXPECT_EQ(view.sequence(), 0xBEEF);
  EXPECT_EQ(view.timestamp(), 0x01020304u);
  EXPECT_EQ(view.ssrc(), 0xCAFEBABEu);
  EXPECT_EQ(view.serialize(), wire);
  // The payload is a window into the adopted buffer, not a copy.
  EXPECT_EQ(view.payload().data(), buf.view().data() + PacketView::kHeaderSize);
  EXPECT_EQ(buf.refcount(), 2u);
  // Same header storage as build(): the RFC 4571 prefix is the wire size.
  const PacketView built = PacketView::build(
      true, kRemotingPayloadType, 0xBEEF, 0x01020304, 0xCAFEBABE, buf,
      PacketView::kHeaderSize, pkt.payload.size());
  const BytesView a = view.framed_header();
  const BytesView b = built.framed_header();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(PacketView, AdoptRejectsShortAndNonCanonicalDatagrams) {
  buf::BufPool pool;
  auto adopt = [&](Bytes bytes) {
    buf::BufRef buf = pool.acquire(0);
    buf.bytes() = std::move(bytes);
    return PacketView::adopt(std::move(buf));
  };
  Bytes header(PacketView::kHeaderSize, 0);
  header[0] = 0x80;
  const PacketView empty_payload = adopt(header);
  ASSERT_TRUE(empty_payload);
  EXPECT_EQ(empty_payload.wire_size(), PacketView::kHeaderSize);
  EXPECT_FALSE(adopt(Bytes(header.begin(), header.end() - 1)));  // 11 bytes
  EXPECT_FALSE(adopt(Bytes{}));
  for (const std::uint8_t first : {0x90, 0xA0, 0x81, 0x40}) {
    Bytes other = header;
    other[0] = first;  // extension, padding, a CSRC, version 1
    EXPECT_FALSE(adopt(other)) << static_cast<int>(first);
  }
}

TEST(PacketView, FramedHeaderMatchesRfc4571Framing) {
  buf::BufPool pool;
  buf::BufRef buf = filled_buf(pool, 64);
  const PacketView view = PacketView::build(false, kRemotingPayloadType, 7, 8, 9,
                                            buf, 5, 40);

  // frame_packet on the contiguous datagram is the oracle.
  auto framed = frame_packet(view.serialize());
  ASSERT_TRUE(framed.ok());
  Bytes gathered;
  const BytesView fh = view.framed_header();
  const BytesView body = view.payload();
  gathered.insert(gathered.end(), fh.begin(), fh.end());
  gathered.insert(gathered.end(), body.begin(), body.end());
  EXPECT_EQ(gathered, *framed);
  EXPECT_EQ(view.framed_size(), framed->size());
}

TEST(PacketView, RoundTripsThroughRtpPacketParse) {
  buf::BufPool pool;
  buf::BufRef buf = filled_buf(pool, 128);
  const PacketView view = PacketView::build(true, kRemotingPayloadType, 42, 90000,
                                            0xABCD, buf, 0, 128);
  auto parsed = RtpPacket::parse(view.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->marker);
  EXPECT_EQ(parsed->sequence, 42);
  EXPECT_EQ(parsed->timestamp, 90000u);
  EXPECT_EQ(parsed->ssrc, 0xABCDu);
  const BytesView window = view.payload();
  EXPECT_TRUE(std::equal(parsed->payload.begin(), parsed->payload.end(),
                         window.begin(), window.end()));
}

TEST(PacketView, SharesPayloadBufferAcrossCopies) {
  buf::BufPool pool;
  buf::BufRef buf = filled_buf(pool, 1200);
  std::vector<PacketView> cohort;
  for (int member = 0; member < 8; ++member) {
    cohort.push_back(PacketView::build(false, kRemotingPayloadType,
                                       static_cast<std::uint16_t>(member), 1, 2,
                                       buf, 0, 1200));
  }
  // 8 packets + the local ref: one buffer, nine references, zero copies.
  EXPECT_EQ(buf.refcount(), 9u);
  for (const auto& v : cohort) {
    EXPECT_EQ(v.payload().data(), buf.view().data());
  }
  cohort.clear();
  EXPECT_EQ(buf.refcount(), 1u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
}

TEST(PacketView, DefaultConstructedIsEmpty) {
  const PacketView view;
  EXPECT_FALSE(static_cast<bool>(view));
  EXPECT_EQ(view.wire_size(), PacketView::kHeaderSize);
}

}  // namespace
}  // namespace ads
