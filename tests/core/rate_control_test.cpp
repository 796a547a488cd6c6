// §4.3 UDP rate control + RTCP SR/RR integration tests.
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "image/metrics.hpp"

namespace ads {
namespace {

AppHostOptions host_opts(std::uint64_t udp_rate_bps) {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  opts.link.rate_bps = udp_rate_bps;
  opts.link.burst_bytes = 16 * 1024;
  return opts;
}

UdpLinkConfig narrow_link() {
  UdpLinkConfig link;
  link.down.delay_us = 10'000;
  link.down.bandwidth_bps = 2'000'000;
  link.down.queue_bytes = 32 * 1024;  // small interface queue
  link.up.delay_us = 10'000;
  return link;
}

TEST(RateControl, UncontrolledSenderOverflowsTheQueue) {
  // Without §4.3 rate control a video stream exceeding the link rate
  // tail-drops at the interface queue.
  SharingSession session(host_opts(0));
  AppHost& host = session.host();
  const WindowId movie = host.wm().create({16, 16, 256, 192}, 1);
  host.capturer().attach(movie, std::make_unique<VideoApp>(256, 192, 7));
  auto& conn = session.add_udp_participant({}, narrow_link());
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(5));

  EXPECT_GT(conn.down_udp->stats().queue_dropped, 0u);
  EXPECT_EQ(host.stats().frames_skipped_rate, 0u);
}

TEST(RateControl, BucketPacesTheStreamBelowLinkRate) {
  SharingSession session(host_opts(1'500'000));  // under the 2 Mbit/s link
  AppHost& host = session.host();
  const WindowId movie = host.wm().create({16, 16, 256, 192}, 1);
  host.capturer().attach(movie, std::make_unique<VideoApp>(256, 192, 7));
  auto& conn = session.add_udp_participant({}, narrow_link());
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(5));

  EXPECT_GT(host.stats().frames_skipped_rate, 0u);
  // A paced sender keeps the interface queue essentially drop-free (the
  // uncontrolled run above drops hundreds of datagrams per second).
  EXPECT_LT(conn.down_udp->stats().queue_dropped, 100u);
  // Observed rate stays near the bucket rate (bits over 5 s).
  const double observed_bps = static_cast<double>(host.stats().bytes_sent) * 8 / 5.0;
  EXPECT_LT(observed_bps, 1'500'000 * 1.25);
  EXPECT_GT(observed_bps, 1'500'000 * 0.5);  // and actually uses the budget
}

TEST(RateControl, PacedStreamStillConvergesWhenContentPauses) {
  SharingSession session(host_opts(1'500'000));
  AppHost& host = session.host();
  const WindowId deck = host.wm().create({16, 16, 256, 192}, 1);
  // Slideshow with an early final transition, then static content.
  host.capturer().attach(deck, std::make_unique<SlideshowApp>(256, 192, 3, 10));
  auto& conn = session.add_udp_participant({}, narrow_link());
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(6));
  host.stop();
  session.run_for(sim_sec(1));

  const Image& truth = host.capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(RtcpReports, SrAndRrFlowBothWays) {
  AppHostOptions opts = host_opts(0);
  opts.sr_interval_us = sim_ms(500);
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId term = host.wm().create({16, 16, 128, 96}, 1);
  host.capturer().attach(term, std::make_unique<TerminalApp>(128, 96, 5));

  UdpLinkConfig link;
  link.down.delay_us = 10'000;
  link.up.delay_us = 10'000;
  ParticipantOptions popts;
  popts.rr_interval_us = sim_ms(500);
  auto& conn = session.add_udp_participant(popts, link);
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(5));

  EXPECT_GT(host.stats().srs_sent, 5u);
  EXPECT_GT(conn.participant->stats().srs_received, 3u);
  EXPECT_GT(conn.participant->stats().rrs_sent, 3u);
  EXPECT_GT(host.stats().rrs_received, 3u);
  const ReportBlock* rr = host.last_receiver_report(conn.id);
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->cumulative_lost, 0u);
  EXPECT_EQ(rr->fraction_lost, 0);
}

TEST(RtcpReports, RrReflectsLinkLoss) {
  AppHostOptions opts = host_opts(0);
  opts.retransmissions = false;  // keep losses visible in the stats
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId term = host.wm().create({16, 16, 192, 160}, 1);
  host.capturer().attach(term, std::make_unique<VideoApp>(192, 160, 5));

  UdpLinkConfig link;
  link.down.delay_us = 10'000;
  link.down.loss = 0.25;
  link.down.seed = 321;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 10'000;
  ParticipantOptions popts;
  popts.send_nacks = false;
  popts.rr_interval_us = sim_ms(500);
  auto& conn = session.add_udp_participant(popts, link);
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(5));

  const ReportBlock* rr = host.last_receiver_report(conn.id);
  ASSERT_NE(rr, nullptr);
  EXPECT_GT(rr->cumulative_lost, 0u);
  // Fraction lost is per interval; with 25% loss it should be visibly
  // non-zero in most intervals.
  EXPECT_GT(conn.participant->receiver().cumulative_lost(), 0u);
}

TEST(RtcpReports, JitterMeasuredOnJitteryLink) {
  SharingSession session(host_opts(0));
  AppHost& host = session.host();
  const WindowId term = host.wm().create({16, 16, 192, 160}, 1);
  host.capturer().attach(term, std::make_unique<VideoApp>(192, 160, 5));

  UdpLinkConfig link;
  link.down.delay_us = 10'000;
  link.down.jitter_us = 40'000;
  link.down.seed = 77;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 10'000;
  auto& conn = session.add_udp_participant({}, link);
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(5));

  // 40 ms uniform jitter: the RFC 3550 filter settles well above the
  // clean-link value of ~0 ticks.
  EXPECT_GT(conn.participant->receiver().jitter(), 100u);
}

}  // namespace
}  // namespace ads
