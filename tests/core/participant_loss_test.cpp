// Loss fallout at the participant. When a gap inside a fragmented
// RegionUpdate is abandoned, the demultiplexer is reset and the buffered
// continuation fragments behind the gap are flushed through it; they are
// counted as orphan_fragments, and decode_errors stays reserved for
// malformed payloads. The flushed run can have holes of its own, so the
// demultiplexer is reset at each hole as well: a message the run opened
// before a hole is dropped, never completed with a chunk missing.
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

RegionUpdate tiny_region() {
  RegionUpdate msg;
  msg.window_id = 1;
  msg.content_pt = static_cast<std::uint8_t>(ContentPt::kPng);
  msg.content = png_encode(Image(2, 2));
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

TEST(ParticipantLoss, MessageOpenedByFlushedFragmentsIsDroppedAcrossAnInnerGap) {
  EventLoop loop;
  ParticipantOptions opts;
  opts.screen_width = 64;
  opts.screen_height = 64;
  opts.send_nacks = false;
  Participant p(loop, opts);

  // Seq 98 opens the stream and 99 is lost, so every fragment of M (from
  // 100) is held behind that head gap. M's second fragment (101) is lost
  // as well, and its marker fragment arrives only after recovery.
  const std::vector<Bytes> lead = packets_for(tiny_region(), 98, 8000);
  ASSERT_EQ(lead.size(), 1u);
  p.on_datagram(lead[0]);
  ASSERT_EQ(p.stats().region_updates, 1u);
  const std::vector<Bytes> m = packets_for(noisy_region(), 100, 9000);
  ASSERT_GE(m.size(), 5u);
  for (std::size_t i = 0; i + 1 < m.size(); ++i) {
    if (i != 1) p.on_datagram(m[i]);
  }
  loop.run_until(loop.now() + opts.loss_recovery_delay_us + sim_ms(10));
  ASSERT_EQ(p.stats().gaps_skipped, 1u);

  // The flush opened M and dropped it at the hole at 101, so M's held
  // fragments after the hole and its late marker are all orphans rather
  // than the end of a message with a chunk missing.
  p.on_datagram(m.back());
  EXPECT_EQ(p.stats().decode_errors, 0u);
  EXPECT_EQ(p.stats().region_updates, 1u);
  EXPECT_EQ(p.stats().orphan_fragments, m.size() - 2);
}

TEST(ParticipantLoss, HoleInsideTheFlushedRunDropsTheMessageItCuts) {
  EventLoop loop;
  ParticipantOptions opts;
  opts.screen_width = 64;
  opts.screen_height = 64;
  opts.send_nacks = false;
  Participant p(loop, opts);

  // Seq 98 opens the stream and 99 is lost, so M (from 100) is held behind
  // that head gap. M's second fragment (101) is lost too, and every other
  // fragment, marker included, waits until the loss timer flushes them.
  const std::vector<Bytes> lead = packets_for(tiny_region(), 98, 8000);
  ASSERT_EQ(lead.size(), 1u);
  p.on_datagram(lead[0]);
  const std::vector<Bytes> m = packets_for(noisy_region(), 100, 9000);
  ASSERT_GE(m.size(), 5u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 1) p.on_datagram(m[i]);
  }
  EXPECT_EQ(p.stats().region_updates, 1u);
  loop.run_until(loop.now() + opts.loss_recovery_delay_us + sim_ms(10));
  ASSERT_EQ(p.stats().gaps_skipped, 1u);

  // The flush opens M at 100; at the hole the message is dropped, so the
  // fragments after it, marker included, are orphans.
  EXPECT_EQ(p.stats().decode_errors, 0u);
  EXPECT_EQ(p.stats().region_updates, 1u);
  EXPECT_EQ(p.stats().orphan_fragments, m.size() - 2);
}

TEST(ParticipantLoss, HoleBetweenAgedOutRunsDropsTheMessageItCuts) {
  EventLoop loop;
  ParticipantOptions opts;
  opts.screen_width = 64;
  opts.screen_height = 64;
  opts.send_nacks = false;
  // The reorder age bound, not the loss timer, abandons the gaps here.
  opts.loss_recovery_delay_us = 4 * Participant::kReorderMaxAgeUs;
  Participant p(loop, opts);

  // The same shape as above: 99 and 101 lost, M's other fragments held.
  const std::vector<Bytes> lead = packets_for(tiny_region(), 98, 8000);
  p.on_datagram(lead[0]);
  const std::vector<Bytes> m = packets_for(noisy_region(), 100, 9000);
  ASSERT_GE(m.size(), 5u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 1) p.on_datagram(m[i]);
  }
  // A packet arriving past the age bound skips both gaps in one call:
  // [100] and [102 .. the new packet] are delivered together.
  loop.run_until(loop.now() + Participant::kReorderMaxAgeUs + sim_ms(100));
  const auto next_seq = static_cast<std::uint16_t>(100 + m.size());
  const std::vector<Bytes> tail = packets_for(tiny_region(), next_seq, 9900);
  ASSERT_EQ(tail.size(), 1u);
  p.on_datagram(tail[0]);
  ASSERT_EQ(p.stats().gaps_skipped, 2u);

  EXPECT_EQ(p.stats().decode_errors, 0u);
  EXPECT_EQ(p.stats().orphan_fragments, m.size() - 2);
  EXPECT_EQ(p.stats().region_updates, 2u);  // the lead and the tail, not M
}

}  // namespace
}  // namespace ads
