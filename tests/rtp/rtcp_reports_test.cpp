#include <gtest/gtest.h>

#include "rtp/rtcp.hpp"
#include "rtp/rtp_session.hpp"

namespace ads {
namespace {

TEST(SenderReport, WireRoundTrip) {
  SenderReport sr;
  sr.ssrc = 0x12345678;
  sr.ntp_timestamp = 0xAABBCCDD00112233ull;
  sr.rtp_timestamp = 90000;
  sr.packet_count = 1000;
  sr.octet_count = 123456;
  sr.blocks.push_back(ReportBlock{1, 10, 20, 30, 40, 50, 60});

  auto parsed = parse_rtcp(sr.serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(std::holds_alternative<SenderReport>(*parsed));
  EXPECT_EQ(std::get<SenderReport>(*parsed), sr);
}

TEST(ReceiverReport, WireRoundTrip) {
  ReceiverReport rr;
  rr.ssrc = 0xCAFE;
  rr.blocks.push_back(ReportBlock{7, 128, 42, 0x00010005, 99, 1, 2});
  rr.blocks.push_back(ReportBlock{8, 0, 0, 0, 0, 0, 0});

  auto parsed = parse_rtcp(rr.serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(std::holds_alternative<ReceiverReport>(*parsed));
  EXPECT_EQ(std::get<ReceiverReport>(*parsed), rr);
}

TEST(ParseRtcp, RoutesFeedbackTypesToo) {
  PictureLossIndication pli;
  pli.sender_ssrc = 1;
  auto parsed = parse_rtcp(pli.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::holds_alternative<PictureLossIndication>(*parsed));

  auto nack = parse_rtcp(GenericNack::for_sequences(1, 2, {5}).serialize());
  ASSERT_TRUE(nack.ok());
  EXPECT_TRUE(std::holds_alternative<GenericNack>(*nack));
}

TEST(ParseRtcp, RejectsTruncatedReports) {
  SenderReport sr;
  sr.blocks.push_back(ReportBlock{});
  const Bytes wire = sr.serialize();
  for (std::size_t len = 0; len < wire.size(); len += 3) {
    EXPECT_FALSE(parse_rtcp(BytesView(wire).subspan(0, len)).ok()) << len;
  }
}

TEST(ParseRtcp, RejectsUnknownPt) {
  Bytes wire = ReceiverReport{}.serialize();
  wire[1] = 204;  // APP
  EXPECT_FALSE(parse_rtcp(wire).ok());
}

RtpPacket pkt(std::uint16_t seq, std::uint32_t ts) {
  RtpPacket p;
  p.sequence = seq;
  p.timestamp = ts;
  return p;
}

TEST(ReceiverJitter, ZeroForPerfectlyPacedStream) {
  RtpReceiver rx;
  // Packets exactly 100 ms apart in both RTP time and arrival time.
  for (int i = 0; i < 50; ++i) {
    rx.on_packet(pkt(static_cast<std::uint16_t>(i), 9000u * static_cast<std::uint32_t>(i)),
                 static_cast<SimTimeUs>(i) * 100'000);
  }
  EXPECT_EQ(rx.jitter(), 0u);
}

TEST(ReceiverJitter, GrowsWithArrivalVariance) {
  RtpReceiver steady;
  RtpReceiver jittery;
  for (int i = 0; i < 100; ++i) {
    const auto ts = 9000u * static_cast<std::uint32_t>(i);
    steady.on_packet(pkt(static_cast<std::uint16_t>(i), ts),
                     static_cast<SimTimeUs>(i) * 100'000);
    // +-20 ms alternating arrival error.
    const std::int64_t wobble = (i % 2 == 0) ? 20'000 : -20'000;
    jittery.on_packet(
        pkt(static_cast<std::uint16_t>(i), ts),
        static_cast<SimTimeUs>(static_cast<std::int64_t>(i) * 100'000 + wobble +
                               20'000));
  }
  EXPECT_GT(jittery.jitter(), steady.jitter());
  // 40 ms swing = 3600 ticks; the filter should settle in that region.
  EXPECT_GT(jittery.jitter(), 1000u);
}

TEST(ReceiverSnapshot, FractionLostPerInterval) {
  RtpReceiver rx;
  // First interval: 10 packets, 0 lost.
  for (std::uint16_t s = 0; s < 10; ++s) rx.on_packet(pkt(s, 0));
  ReportBlock first = rx.snapshot(42, /*now_us=*/0);
  EXPECT_EQ(first.ssrc, 42u);
  EXPECT_EQ(first.fraction_lost, 0);
  EXPECT_EQ(first.cumulative_lost, 0u);

  // Second interval: receive 10..19 but drop half (skip even seqs).
  for (std::uint16_t s = 10; s < 20; ++s) {
    if (s % 2 == 1) rx.on_packet(pkt(s, 0));
  }
  ReportBlock second = rx.snapshot(42, /*now_us=*/0);
  // 10 expected, 5 received -> fraction ~ 128/256.
  EXPECT_NEAR(second.fraction_lost, 128, 32);
  EXPECT_EQ(second.cumulative_lost, 5u);
}

TEST(ReceiverSnapshot, CarriesLastSenderReportTiming) {
  RtpReceiver rx;
  rx.on_packet(pkt(1, 0));
  // No SR yet: LSR and DLSR are zero.
  const ReportBlock none = rx.snapshot(42, /*now_us=*/5'000'000);
  EXPECT_EQ(none.last_sr, 0u);
  EXPECT_EQ(none.delay_since_last_sr, 0u);

  SenderReport sr;
  sr.ntp_timestamp = 0x0123456789ABCDEFull;
  rx.on_sender_report(sr, /*arrival_us=*/6'000'000);
  const ReportBlock block = rx.snapshot(42, /*now_us=*/6'500'000);
  EXPECT_EQ(block.last_sr, 0x456789ABu);  // middle 32 NTP bits
  EXPECT_EQ(block.delay_since_last_sr, 32768u);  // 0.5 s in 1/65536 s
}

TEST(ReceiverSnapshot, ExtendedSequenceCountsCycles) {
  RtpReceiver rx;
  rx.on_packet(pkt(65534, 0));
  rx.on_packet(pkt(65535, 0));
  rx.on_packet(pkt(0, 0));  // wrap
  rx.on_packet(pkt(1, 0));
  EXPECT_EQ(rx.extended_highest_sequence(), (1u << 16) | 1u);
}

}  // namespace
}  // namespace ads
