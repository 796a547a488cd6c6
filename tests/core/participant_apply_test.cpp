// What a participant does with each RegionUpdate it completes (§5.2.2): it
// paints the decoded band at (left, top) of its replica, clipped to it, and
// logs one delivery record. A band that fails to decode paints nothing and
// counts one decode error, and the delivery log keeps only the newest
// records when nobody drains it.
#include <gtest/gtest.h>

#include <vector>

#include "codec/png.hpp"
#include "codec/zlib.hpp"
#include "core/participant.hpp"
#include "remoting/region_update.hpp"
#include "rtp/rtp_packet.hpp"
#include "util/prng.hpp"
#include "../codec/png_stream.hpp"

namespace ads {
namespace {

/// Feeds RegionUpdates to a participant as RTP packets with consecutive
/// sequence numbers, one timestamp per message.
class Feeder {
 public:
  explicit Feeder(Participant& p) : p_(p) {}

  void send(const RegionUpdate& msg, std::uint32_t timestamp) {
    for (RegionUpdateFragment& f : fragment_region_update(msg, 1200)) {
      RtpPacket pkt;
      pkt.marker = f.marker;
      pkt.payload_type = kRemotingPayloadType;
      pkt.sequence = seq_++;
      pkt.timestamp = timestamp;
      pkt.ssrc = 0x5EED;
      pkt.payload = std::move(f.payload);
      p_.on_datagram(pkt.serialize());
    }
  }

 private:
  Participant& p_;
  std::uint16_t seq_ = 1;
};

Image noise(std::int64_t w, std::int64_t h, std::uint64_t seed) {
  Prng rng(seed);
  Image img(w, h);
  for (Pixel& px : img.pixels()) {
    px = {static_cast<std::uint8_t>(rng.next_u32()), static_cast<std::uint8_t>(rng.next_u32()),
          static_cast<std::uint8_t>(rng.next_u32()), 255};
  }
  return img;
}

RegionUpdate png_band(Bytes content, std::uint32_t left, std::uint32_t top) {
  RegionUpdate msg;
  msg.window_id = 1;
  msg.left = left;
  msg.top = top;
  msg.content_pt = static_cast<std::uint8_t>(ContentPt::kPng);
  msg.content = std::move(content);
  return msg;
}

ParticipantOptions small_screen() {
  ParticipantOptions opts;
  opts.screen_width = 64;
  opts.screen_height = 48;
  opts.send_nacks = false;
  opts.rr_interval_us = 0;
  return opts;
}

TEST(ParticipantApply, CorruptBandLeavesTheScreenUnchanged) {
  EventLoop loop;
  Participant p(loop, small_screen());
  Feeder feed(p);
  feed.send(png_band(png_encode(noise(64, 48, 1)), 0, 0), 100);
  ASSERT_EQ(p.stats().region_updates, 1u);
  const Image before = p.screen();

  // Every check passes but the last row's filter byte, 5: a decoder that
  // wrote rows as it went would have painted all the others.
  const Image band = noise(40, 30, 2);
  Bytes lines = png_stream::filtered_lines(band, 4);
  const Bytes good = png_stream::build(40, 30, true, zlib_compress(lines));
  lines[29 * (40 * 4 + 1)] = 5;
  feed.send(png_band(png_stream::build(40, 30, true, zlib_compress(lines)), 10, 5), 200);
  EXPECT_EQ(p.stats().decode_errors, 1u);
  EXPECT_EQ(p.stats().region_updates, 1u);
  EXPECT_TRUE(p.screen() == before);
  EXPECT_EQ(p.drain_deliveries().size(), 1u);

  // A bad chunk CRC (here in IEND): the same.
  Bytes bad_crc = good;
  bad_crc[bad_crc.size() - 1] ^= 0x01;
  feed.send(png_band(bad_crc, 10, 5), 300);
  EXPECT_EQ(p.stats().decode_errors, 2u);
  EXPECT_TRUE(p.screen() == before);

  // The intact band paints.
  feed.send(png_band(good, 10, 5), 400);
  EXPECT_EQ(p.stats().decode_errors, 2u);
  EXPECT_EQ(p.stats().region_updates, 2u);
  Image want = before;
  want.blit(band, band.bounds(), {10, 5});
  EXPECT_TRUE(p.screen() == want);
}

TEST(ParticipantApply, BandOverTheEdgeIsClippedAndRecordedWhole) {
  EventLoop loop;
  Participant p(loop, small_screen());
  Feeder feed(p);
  const Image band = noise(30, 20, 3);
  feed.send(png_band(png_encode(band), 50, 40), 7);
  Image want(64, 48, kBlack);
  want.blit(band, band.bounds(), {50, 40});
  EXPECT_TRUE(p.screen() == want);
  const std::vector<Participant::DeliveryRecord> ds = p.drain_deliveries();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].region, (Rect{50, 40, 30, 20}));
  EXPECT_EQ(ds[0].rtp_timestamp, 7u);
}

TEST(ParticipantApply, UndrainedDeliveriesKeepTheNewestWithinTheBound) {
  EventLoop loop;
  Participant p(loop, small_screen());
  Feeder feed(p);
  const Bytes tiny = png_encode(Image(2, 2, kWhite));
  constexpr std::uint32_t kUpdates = 10'000;
  static_assert(kUpdates > Participant::kMaxDeliveries);
  for (std::uint32_t i = 0; i < kUpdates; ++i) feed.send(png_band(tiny, i % 60, 0), i);
  EXPECT_EQ(p.stats().region_updates, kUpdates);
  EXPECT_EQ(p.stats().deliveries_dropped, kUpdates - Participant::kMaxDeliveries);

  const std::vector<Participant::DeliveryRecord> ds = p.drain_deliveries();
  ASSERT_EQ(ds.size(), Participant::kMaxDeliveries);
  for (std::size_t k = 0; k < ds.size(); ++k) {
    const auto timestamp =
        static_cast<std::uint32_t>(kUpdates - Participant::kMaxDeliveries + k);
    ASSERT_EQ(ds[k].rtp_timestamp, timestamp) << k;
    ASSERT_EQ(ds[k].region, (Rect{timestamp % 60, 0, 2, 2})) << k;
  }

  // After a drain the log starts over.
  EXPECT_TRUE(p.drain_deliveries().empty());
  feed.send(png_band(tiny, 0, 0), kUpdates);
  EXPECT_EQ(p.drain_deliveries().size(), 1u);
  EXPECT_EQ(p.stats().deliveries_dropped, kUpdates - Participant::kMaxDeliveries);
}

}  // namespace
}  // namespace ads
