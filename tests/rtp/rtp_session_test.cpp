#include "rtp/rtp_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ads {
namespace {

TEST(RtpSender, AssignsConsecutiveSequences) {
  RtpSender sender(99, 1);
  const std::uint16_t first = sender.next_sequence();
  auto p1 = sender.make_packet({1}, false, 0);
  auto p2 = sender.make_packet({2}, false, 0);
  EXPECT_EQ(p1.sequence, first);
  EXPECT_EQ(p2.sequence, static_cast<std::uint16_t>(first + 1));
}

TEST(RtpSender, RandomisedInitialState) {
  // §5.1.1: "the initial value of the timestamp MUST be random".
  RtpSender a(99, 1);
  RtpSender b(99, 2);
  EXPECT_NE(a.timestamp_at(0), b.timestamp_at(0));
  EXPECT_NE(a.ssrc(), b.ssrc());
  // Same seed reproduces (determinism for tests).
  RtpSender a2(99, 1);
  EXPECT_EQ(a.timestamp_at(0), a2.timestamp_at(0));
  EXPECT_EQ(a.ssrc(), a2.ssrc());
}

TEST(RtpSender, TimestampAdvancesAt90kHz) {
  RtpSender sender(99, 3);
  const std::uint32_t t0 = sender.timestamp_at(0);
  // 1 second = 90000 ticks; 100 ms = 9000.
  EXPECT_EQ(sender.timestamp_at(1'000'000) - t0, 90000u);
  EXPECT_EQ(sender.timestamp_at(100'000) - t0, 9000u);
}

TEST(RtpSender, AccountsBytesAndPackets) {
  RtpSender sender(99, 4);
  sender.make_packet(Bytes(100, 0), false, 0);
  sender.make_packet(Bytes(50, 0), true, 0);
  EXPECT_EQ(sender.packets_sent(), 2u);
  EXPECT_EQ(sender.bytes_sent(), 100u + 50u + 2 * RtpPacket::kHeaderSize);
}

TEST(UsToRtpTicks, Conversion) {
  EXPECT_EQ(us_to_rtp_ticks(0), 0u);
  EXPECT_EQ(us_to_rtp_ticks(1'000'000), 90000u);
  EXPECT_EQ(us_to_rtp_ticks(11'111), 999u);  // floor semantics
}

RtpPacket packet_with_seq(std::uint16_t seq) {
  RtpPacket pkt;
  pkt.sequence = seq;
  pkt.payload_type = 99;
  return pkt;
}

TEST(RtpReceiver, InOrderStreamHasNoLosses) {
  RtpReceiver rx;
  for (std::uint16_t s = 100; s < 200; ++s) {
    EXPECT_TRUE(rx.on_packet(packet_with_seq(s)));
  }
  EXPECT_TRUE(rx.missing().empty());
  EXPECT_EQ(rx.received(), 100u);
  EXPECT_EQ(rx.duplicates(), 0u);
}

TEST(RtpReceiver, GapIsReportedMissing) {
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(10));
  rx.on_packet(packet_with_seq(14));
  EXPECT_EQ(rx.missing(), (std::vector<std::uint16_t>{11, 12, 13}));
}

TEST(RtpReceiver, LatePacketFillsGap) {
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(10));
  rx.on_packet(packet_with_seq(13));
  EXPECT_TRUE(rx.on_packet(packet_with_seq(11)));
  EXPECT_EQ(rx.missing(), (std::vector<std::uint16_t>{12}));
}

TEST(RtpReceiver, DuplicateDetected) {
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(5));
  EXPECT_FALSE(rx.on_packet(packet_with_seq(5)));
  EXPECT_EQ(rx.duplicates(), 1u);
}

TEST(RtpReceiver, ForgetRemovesMissingEntry) {
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(1));
  rx.on_packet(packet_with_seq(4));
  rx.forget(2);
  EXPECT_EQ(rx.missing(), (std::vector<std::uint16_t>{3}));
  rx.reset_losses();
  EXPECT_TRUE(rx.missing().empty());
}

TEST(RtpReceiver, SequenceWrapAround) {
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(65534));
  rx.on_packet(packet_with_seq(1));  // 65535 and 0 lost
  auto missing = rx.missing();
  std::sort(missing.begin(), missing.end());
  EXPECT_EQ(missing, (std::vector<std::uint16_t>{0, 65535}));
  EXPECT_EQ(rx.highest_sequence(), 1);
}

TEST(RtpReceiver, MissingListCapped) {
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(0));
  rx.on_packet(packet_with_seq(1000));
  EXPECT_EQ(rx.missing(10).size(), 10u);
}

TEST(RtpReceiver, ReorderedPacketDoesNotInflateCycles) {
  // {4, 5, 3, 6}: an ordinary late packet must not look like a 16-bit wrap.
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(4));
  rx.on_packet(packet_with_seq(5));
  rx.on_packet(packet_with_seq(3));
  rx.on_packet(packet_with_seq(6));
  EXPECT_EQ(rx.extended_highest_sequence(), 6u);  // cycles stayed 0
  EXPECT_EQ(rx.highest_sequence(), 6);
  EXPECT_TRUE(rx.missing().empty());

  const ReportBlock rr = rx.snapshot(0x1234, /*now_us=*/0);
  EXPECT_EQ(rr.fraction_lost, 0);
  EXPECT_EQ(rr.cumulative_lost, 0u);
}

TEST(RtpReceiver, AncientStragglerDoesNotAdvanceStream) {
  // A straggler from more than half a window back (here 32774 behind the
  // highest) used to be misread as a forward wrap: cycles_ jumped, the
  // extended sequence inflated by 65536, highest_seq_ regressed, ~32k fake
  // missing entries appeared and the next RR pinned fraction_lost at 255 —
  // spuriously tripping the ads::rate multiplicative decrease.
  RtpReceiver rx;
  for (std::uint32_t s = 0; s <= 36865; ++s) {
    rx.on_packet(packet_with_seq(static_cast<std::uint16_t>(s)));
  }
  (void)rx.snapshot(0x1234, /*now_us=*/0);  // close the interval: loss-free so far

  rx.on_packet(packet_with_seq(4091));  // 36865 - 4091 = 32774 behind

  EXPECT_EQ(rx.highest_sequence(), 36865);
  EXPECT_EQ(rx.extended_highest_sequence(), 36865u);
  EXPECT_TRUE(rx.missing().empty());
  const ReportBlock rr = rx.snapshot(0x1234, /*now_us=*/0);
  EXPECT_EQ(rr.fraction_lost, 0);
  EXPECT_EQ(rr.cumulative_lost, 0u);
}

TEST(RtpReceiver, BlackoutRestartConfirmedByConsecutivePackets) {
  // A forward jump beyond kMaxDropout is quarantined until two consecutive
  // packets prove the stream really continues there (RFC 3550 A.1).
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(100));
  rx.on_packet(packet_with_seq(5000));
  EXPECT_EQ(rx.highest_sequence(), 100);  // suspect: not yet accepted
  rx.on_packet(packet_with_seq(5001));
  EXPECT_EQ(rx.highest_sequence(), 5001);
  EXPECT_EQ(rx.extended_highest_sequence(), 5001u);  // no cycle counted
  // The blackout gap is not enumerated for NACK — PLI escalation owns it.
  EXPECT_TRUE(rx.missing().empty());
}

TEST(RtpReceiver, RestartAcrossWrapCountsOneCycle) {
  // A confirmed restart whose new position is numerically below the old
  // highest really did cross the 16-bit wrap: exactly one cycle.
  RtpReceiver rx;
  rx.on_packet(packet_with_seq(0xFF00));
  rx.on_packet(packet_with_seq(0x2000));
  rx.on_packet(packet_with_seq(0x2001));
  EXPECT_EQ(rx.highest_sequence(), 0x2001);
  EXPECT_EQ(rx.extended_highest_sequence(), (1u << 16) | 0x2001);
}

TEST(RtpReceiver, SenderCountMarksALostTailMissingMidStream) {
  // The sender started at 65530 and had sent 20 packets when this receiver
  // joined at 65534 (its 5th). Its SR counts from the stream's start.
  RtpReceiver rx;
  for (std::uint16_t s = 65534; s != 3; ++s) rx.on_packet(RtpPacket{.sequence = s});
  EXPECT_EQ(rx.on_sender_count(7, 9), 0u);  // learns the offset; idle
  EXPECT_EQ(rx.on_sender_count(7, 9), 0u);  // still nothing outstanding
  rx.on_packet(RtpPacket{.sequence = 3});
  // Sequences 4 and 5 were sent (count 12) but never arrived.
  EXPECT_EQ(rx.on_sender_count(7, 12), 2u);
  EXPECT_EQ(rx.missing(), (std::vector<std::uint16_t>{4, 5}));
  EXPECT_EQ(rx.highest_sequence(), 5);
  EXPECT_EQ(rx.on_sender_count(7, 12), 0u);  // already marked
  EXPECT_TRUE(rx.on_packet(RtpPacket{.sequence = 5}));  // the repair fills it
  EXPECT_EQ(rx.missing(), (std::vector<std::uint16_t>{4}));
  // A new SSRC is a new stream: its offset is learned afresh.
  EXPECT_EQ(rx.on_sender_count(8, 1000), 0u);
}

TEST(RtpReceiver, SenderCountOffsetRelearnsDownAfterALostTail) {
  // The first SR arrived behind a lost tail of two: the offset it taught
  // was two too high. The next SR shows less outstanding and corrects it.
  RtpReceiver rx;
  for (std::uint16_t s = 100; s <= 110; ++s) rx.on_packet(RtpPacket{.sequence = s});
  EXPECT_EQ(rx.on_sender_count(1, 13), 0u);  // 111 and 112 lost: masked
  for (std::uint16_t s = 113; s <= 120; ++s) rx.on_packet(RtpPacket{.sequence = s});
  EXPECT_EQ(rx.on_sender_count(1, 21), 0u);  // relearned
  EXPECT_EQ(rx.on_sender_count(1, 22), 1u);  // 121 now shows as a tail
}

}  // namespace
}  // namespace ads
