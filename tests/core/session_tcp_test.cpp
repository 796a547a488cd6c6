// End-to-end integration over the simulated TCP transport (§4.4): AH
// captures a scripted application, ships WindowManagerInfo + RegionUpdates
// over RFC 4571-framed RTP, and the participant's replica converges to the
// AH's exported view.
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "image/metrics.hpp"

namespace ads {
namespace {

AppHostOptions small_host() {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  return opts;
}

TcpLinkConfig fast_link() {
  TcpLinkConfig link;
  link.down.bandwidth_bps = 100'000'000;
  link.down.delay_us = 1000;
  link.down.send_buffer_bytes = 4 * 1024 * 1024;
  link.up.bandwidth_bps = 10'000'000;
  link.up.delay_us = 1000;
  return link;
}

TEST(SessionTcp, NewParticipantGetsWmiAndFullRefresh) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({20, 30, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3));

  auto& conn = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_ms(500));

  // §4.4: WMI + full image arrive right after connection establishment.
  EXPECT_GE(conn.participant->stats().wmi_received, 1u);
  EXPECT_GE(conn.participant->stats().region_updates, 1u);
  ASSERT_EQ(conn.participant->windows().size(), 1u);
  EXPECT_EQ(conn.participant->windows().begin()->second.rect(),
            (Rect{20, 30, 128, 96}));
}

TEST(SessionTcp, ReplicaConvergesToSharedView) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({20, 30, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3));

  auto& conn = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_sec(2));
  session.host().stop();
  session.run_for(sim_sec(1));  // drain in flight

  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(SessionTcp, ActiveContentKeepsConverging) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 160, 120}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 5));

  auto& conn = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_sec(3));
  session.host().stop();
  session.run_for(sim_sec(1));

  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  EXPECT_GT(conn.participant->stats().region_updates, 5u);
}

TEST(SessionTcp, WindowMoveTriggersNewWmi) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 64, 64}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(64, 64, 3));
  auto& conn = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_ms(500));
  const auto wmi_before = conn.participant->stats().wmi_received;

  session.host().wm().move(w, {100, 100});
  session.run_for(sim_ms(500));
  EXPECT_GT(conn.participant->stats().wmi_received, wmi_before);
  EXPECT_EQ(conn.participant->windows().begin()->second.rect(),
            (Rect{100, 100, 64, 64}));
}

TEST(SessionTcp, WindowCloseRemovesRecordAtParticipant) {
  SharingSession session(small_host());
  const WindowId w1 = session.host().wm().create({0, 0, 64, 64}, 1);
  const WindowId w2 = session.host().wm().create({100, 0, 64, 64}, 1);
  session.host().capturer().attach(w1, std::make_unique<SlideshowApp>(64, 64, 3));
  session.host().capturer().attach(w2, std::make_unique<SlideshowApp>(64, 64, 4));
  auto& conn = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_ms(500));
  EXPECT_EQ(conn.participant->windows().size(), 2u);

  session.host().wm().close(w2);
  session.run_for(sim_ms(500));
  // "MUST close this window after receiving a WindowManagerInfo message
  // which does not contain this WindowID."
  EXPECT_EQ(conn.participant->windows().size(), 1u);
  EXPECT_EQ(conn.participant->windows().begin()->first, w1);
}

TEST(SessionTcp, SlowLinkSkipsFramesInsteadOfLagging) {
  // §7: backlog-aware AH drops stale frames for a slow TCP participant.
  AppHostOptions host_opts = small_host();
  host_opts.link.backlog_limit = 2048;
  host_opts.codec = ContentPt::kRaw;  // bulky updates to saturate the pipe
  SharingSession session(host_opts);
  const WindowId w = session.host().wm().create({0, 0, 200, 150}, 1);
  session.host().capturer().attach(w, std::make_unique<VideoApp>(200, 150, 7));

  TcpLinkConfig slow = fast_link();
  slow.down.bandwidth_bps = 2'000'000;  // well under raw video rate
  slow.down.send_buffer_bytes = 256 * 1024;
  session.add_tcp_participant({}, slow);
  session.host().start();
  session.run_for(sim_sec(3));

  EXPECT_GT(session.host().stats().frames_skipped_backlog, 0u);
}

TEST(SessionTcp, MultipleParticipantsEachConverge) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({10, 10, 100, 80}, 1);
  session.host().capturer().attach(w, std::make_unique<PaintApp>(100, 80, 9));

  auto& c1 = session.add_tcp_participant({}, fast_link());
  auto& c2 = session.add_tcp_participant({}, fast_link());
  auto& c3 = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_sec(2));
  session.host().stop();
  session.run_for(sim_sec(1));

  const Image& truth = session.host().capturer().last_frame();
  for (auto* conn : {&c1, &c2, &c3}) {
    const Image replica =
        conn->participant->screen().crop({0, 0, truth.width(), truth.height()});
    EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  }
}

TEST(SessionTcp, PliForcesFullRefreshOverTcp) {
  // §5.3.1: "Both TCP and UDP participants MAY transmit this message."
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 64, 64}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(64, 64, 3));
  auto& conn = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_ms(500));
  const auto plis_before = session.host().stats().plis_received;

  conn.participant->request_refresh();
  session.run_for(sim_ms(500));
  EXPECT_GT(session.host().stats().plis_received, plis_before);
}

}  // namespace
}  // namespace ads
