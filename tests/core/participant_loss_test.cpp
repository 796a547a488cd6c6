// Loss fallout at the participant. When a gap inside a fragmented
// RegionUpdate is abandoned, the demultiplexer is reset and the buffered
// continuation fragments behind the gap are flushed through it; they are
// counted as orphan_fragments, and decode_errors stays reserved for
// malformed payloads. The flushed run can have holes of its own, so the
// demultiplexer is reset at each hole as well: a message the run opened
// before a hole is dropped, never completed with a chunk missing. The last
// cases pin when a lost sequence is NACKed and given up.
#include <gtest/gtest.h>

#include <vector>

#include "codec/png.hpp"
#include "core/participant.hpp"
#include "remoting/region_update.hpp"
#include "rtp/rtcp.hpp"
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
  loop.run_until(loop.now() + Participant::kBlackoutCapUs + sim_ms(10));

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
  loop.run_until(loop.now() + Participant::kBlackoutCapUs + sim_ms(10));
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
  loop.run_until(loop.now() + Participant::kBlackoutCapUs + sim_ms(10));
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
  // The hold bound, not the repair deadline, abandons the gaps here.
  opts.reorder_max_hold = 3;
  Participant p(loop, opts);

  // The same shape as above: 99 and 101 lost, M's other fragments held.
  const std::vector<Bytes> lead = packets_for(tiny_region(), 98, 8000);
  p.on_datagram(lead[0]);
  const std::vector<Bytes> m = packets_for(noisy_region(), 100, 9000);
  ASSERT_GE(m.size(), 5u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 1) p.on_datagram(m[i]);
  }
  // The fourth held fragment (104) trips the bound, which gives up both
  // gaps in one flush: [100] and [102 .. 104] are delivered together and
  // the fragments after them arrive in order.
  const auto next_seq = static_cast<std::uint16_t>(100 + m.size());
  const std::vector<Bytes> tail = packets_for(tiny_region(), next_seq, 9900);
  ASSERT_EQ(tail.size(), 1u);
  p.on_datagram(tail[0]);
  ASSERT_EQ(p.stats().gaps_skipped, 1u);

  EXPECT_EQ(p.stats().decode_errors, 0u);
  EXPECT_EQ(p.stats().orphan_fragments, m.size() - 2);
  EXPECT_EQ(p.stats().region_updates, 2u);  // the lead and the tail, not M
}

/// Serialised one-fragment RTP packets numbered `first`..`last`.
std::vector<Bytes> tiny_packets(std::uint16_t first, std::uint16_t last) {
  std::vector<Bytes> out;
  for (std::uint16_t seq = first; seq <= last; ++seq) {
    out.push_back(packets_for(tiny_region(), seq, 8000u + seq)[0]);
  }
  return out;
}

/// Participant whose uplink counts the NACKs and PLIs it sends.
struct Uplink {
  int nacks = 0;
  int plis = 0;
  void attach(Participant& p) {
    p.set_uplink([this](BytesView packet) {
      auto msgs = parse_rtcp_compound(packet);
      if (!msgs.ok()) return;
      for (const RtcpMessage& msg : *msgs) {
        if (std::holds_alternative<GenericNack>(msg)) ++nacks;
        if (std::holds_alternative<PictureLossIndication>(msg)) ++plis;
      }
    });
  }
};

TEST(ParticipantLoss, HoldBoundGivesUpTheGapOnceAndForgetsIt) {
  EventLoop loop;
  ParticipantOptions opts;
  opts.screen_width = 64;
  opts.screen_height = 64;
  opts.reorder_max_hold = 4;
  Participant p(loop, opts);
  Uplink up;
  up.attach(p);

  // 11 is lost and 12..16 pile up behind it: the fifth held packet trips
  // the bound before the NACK round is due.
  const std::vector<Bytes> pkts = tiny_packets(10, 16);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (i != 1) p.on_datagram(pkts[i]);
  }
  EXPECT_EQ(p.stats().gaps_skipped, 1u);
  EXPECT_EQ(p.stats().region_updates, 6u);
  EXPECT_EQ(up.plis, 1);

  // The abandoned sequence is forgotten: no NACK for it, no second give-up.
  loop.run_until(loop.now() + 2 * Participant::kBlackoutCapUs);
  EXPECT_EQ(up.nacks, 0);
  EXPECT_EQ(up.plis, 1);
  EXPECT_EQ(p.stats().gaps_skipped, 1u);
  EXPECT_EQ(p.stats().nack_escalations, 0u);
}

TEST(ParticipantLoss, RepairDeadlineFollowsMeasuredReorderAndRepairTimes) {
  EventLoop loop;
  ParticipantOptions opts;
  opts.screen_width = 64;
  opts.screen_height = 64;
  Participant p(loop, opts);
  Uplink up;
  up.attach(p);
  const std::vector<Bytes> pkts = tiny_packets(100, 140);
  const auto feed_at = [&](SimTime t, std::uint16_t seq) {
    loop.run_until(t);
    p.on_datagram(pkts[seq - 100]);
  };

  // 101 arrives 2 ms late. Nothing has been measured, so it is NACKed at
  // once; its repair shows up 30 ms after the NACK as a duplicate, which
  // marks the first arrival as the original, late: the stream reorders by
  // 2 ms and repairs in 30 ms.
  feed_at(sim_ms(10), 100);
  feed_at(sim_ms(11), 102);
  loop.run_until(sim_ms(12));
  EXPECT_EQ(up.nacks, 1);
  feed_at(sim_ms(13), 101);
  feed_at(sim_ms(41), 101);

  // 104 arrives 3 ms late: within twice the reordering shown, no NACK.
  feed_at(sim_ms(50), 103);
  feed_at(sim_ms(51), 105);
  feed_at(sim_ms(54), 104);
  loop.run_until(sim_ms(60));
  EXPECT_EQ(up.nacks, 1);

  // 107 is lost for good: NACKed 6 ms (twice the 3 ms now shown) after
  // the gap shows, then every 45 ms (half as long again as the 30 ms
  // repair) for three rounds, then given up.
  feed_at(sim_ms(100), 106);
  feed_at(sim_ms(101), 108);
  loop.run_until(sim_ms(106));
  EXPECT_EQ(up.nacks, 1);
  loop.run_until(sim_ms(107));
  EXPECT_EQ(up.nacks, 2);
  loop.run_until(sim_ms(151));
  EXPECT_EQ(up.nacks, 2);
  loop.run_until(sim_ms(152));
  EXPECT_EQ(up.nacks, 3);
  loop.run_until(sim_ms(197));
  EXPECT_EQ(up.nacks, 4);
  loop.run_until(sim_ms(241));
  EXPECT_EQ(up.plis, 0);
  loop.run_until(sim_ms(242));
  EXPECT_EQ(up.nacks, 4);
  EXPECT_EQ(up.plis, 1);
  EXPECT_EQ(p.stats().nack_escalations, 1u);
  EXPECT_EQ(p.stats().gaps_skipped, 1u);
  EXPECT_EQ(p.stats().decode_errors, 0u);
}

}  // namespace
}  // namespace ads
