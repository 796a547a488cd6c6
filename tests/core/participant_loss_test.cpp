// Loss fallout at the participant. When a gap inside a fragmented
// RegionUpdate is abandoned, the demultiplexer is reset and the buffered
// continuation fragments behind the gap are flushed through it; they are
// counted as orphan_fragments, and decode_errors stays reserved for
// malformed payloads.
#include <gtest/gtest.h>

#include <vector>

#include "codec/png.hpp"
#include "core/participant.hpp"
#include "remoting/region_update.hpp"
#include "rtp/rtp_packet.hpp"
#include "util/prng.hpp"

namespace ads {
namespace {

/// Serialised RTP packets carrying `msg` in fragments, numbered from `seq`.
std::vector<Bytes> packets_for(const RegionUpdate& msg, std::uint16_t seq,
                               std::uint32_t timestamp) {
  std::vector<Bytes> out;
  for (RegionUpdateFragment& f : fragment_region_update(msg, 400)) {
    RtpPacket pkt;
    pkt.marker = f.marker;
    pkt.payload_type = kRemotingPayloadType;
    pkt.sequence = seq++;
    pkt.timestamp = timestamp;
    pkt.ssrc = 0x5EED;
    pkt.payload = std::move(f.payload);
    out.push_back(pkt.serialize());
  }
  return out;
}

RegionUpdate noisy_region() {
  Prng rng(31);
  Image img(32, 32);
  for (Pixel& px : img.pixels()) {
    px = {static_cast<std::uint8_t>(rng.next_u32()), static_cast<std::uint8_t>(rng.next_u32()),
          static_cast<std::uint8_t>(rng.next_u32()), 255};
  }
  RegionUpdate msg;
  msg.window_id = 1;
  msg.content_pt = static_cast<std::uint8_t>(ContentPt::kPng);
  msg.content = png_encode(img);
  return msg;
}

TEST(ParticipantLoss, SkippedGapInsideARegionUpdateCountsOrphansNotDecodeErrors) {
  EventLoop loop;
  ParticipantOptions opts;
  opts.screen_width = 64;
  opts.screen_height = 64;
  opts.send_nacks = false;  // nobody would answer; the gap is abandoned
  Participant p(loop, opts);

  const RegionUpdate msg = noisy_region();
  const std::vector<Bytes> first = packets_for(msg, 100, 9000);
  ASSERT_GE(first.size(), 5u);
  // Fragment 2 is lost: fragment 1 opens the reassembly, 3.. wait behind
  // the gap in the reorder buffer.
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (i != 2) p.on_datagram(first[i]);
  }
  loop.run_until(loop.now() + opts.loss_recovery_delay_us + sim_ms(10));

  EXPECT_EQ(p.stats().gaps_skipped, 1u);
  EXPECT_EQ(p.stats().decode_errors, 0u);
  EXPECT_GT(p.stats().orphan_fragments, 0u);
  EXPECT_EQ(p.stats().orphan_fragments, first.size() - 3);
  EXPECT_EQ(p.stats().region_updates, 0u);

  // The stream carries on: the next complete message applies cleanly.
  const auto next_seq = static_cast<std::uint16_t>(100 + first.size());
  for (const Bytes& pkt : packets_for(msg, next_seq, 9900)) p.on_datagram(pkt);
  EXPECT_EQ(p.stats().region_updates, 1u);
  EXPECT_EQ(p.stats().decode_errors, 0u);
}

}  // namespace
}  // namespace ads
