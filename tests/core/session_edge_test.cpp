// Edge-condition integration tests: scroll-driven MoveRectangle on the
// wire, participant removal, partial-write framing integrity, and bulk
// WindowManagerInfo messages.
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
  link.down.bandwidth_bps = 50'000'000;
  link.down.send_buffer_bytes = 4 * 1024 * 1024;
  return link;
}

TEST(SessionEdge, ScrollingContentUsesMoveRectangleOnTheWire) {
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId doc = host.wm().create({20, 20, 256, 200}, 1);
  host.capturer().attach(doc, std::make_unique<DocumentApp>(256, 200, 3, 16));
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  session.run_for(sim_sec(3));
  host.stop();
  session.run_for(sim_sec(1));

  EXPECT_GT(host.stats().move_rectangles_sent, 5u);
  EXPECT_GT(conn.participant->stats().move_rectangles, 5u);
  const Image& truth = host.capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(SessionEdge, MoveRectangleDisabledFallsBackToRegions) {
  AppHostOptions opts = small_host();
  opts.use_move_rectangle = false;
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId doc = host.wm().create({20, 20, 256, 200}, 1);
  host.capturer().attach(doc, std::make_unique<DocumentApp>(256, 200, 3, 16));
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  EXPECT_EQ(host.stats().move_rectangles_sent, 0u);
  const Image& truth = host.capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(SessionEdge, RemovedParticipantStopsReceiving) {
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 128, 96}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  session.run_for(sim_sec(1));
  const auto packets_before = conn.participant->stats().rtp_packets;
  EXPECT_GT(packets_before, 0u);

  host.remove_participant(conn.id);
  EXPECT_EQ(host.participant_count(), 0u);
  session.run_for(sim_ms(200));  // drain packets already in flight
  const auto packets_after_drain = conn.participant->stats().rtp_packets;
  session.run_for(sim_sec(1));
  EXPECT_EQ(conn.participant->stats().rtp_packets, packets_after_drain);
}

TEST(SessionEdge, TinyTcpBufferNeverTearsFrames) {
  // Byte-starved stream: constant partial writes exercise the stream_carry
  // path; RFC 4571 framing must never desynchronise.
  AppHostOptions opts = small_host();
  opts.link.backlog_limit = 1024;
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 128, 96}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));

  TcpLinkConfig slow;
  slow.down.bandwidth_bps = 300'000;       // very slow
  slow.down.send_buffer_bytes = 2 * 1024;  // very small
  auto& conn = session.add_tcp_participant({}, slow);
  host.start();
  session.run_for(sim_sec(10));
  host.stop();
  session.run_for(sim_sec(5));

  EXPECT_EQ(conn.participant->stats().decode_errors, 0u);
  EXPECT_GT(conn.participant->stats().region_updates, 0u);
}

TEST(SessionEdge, ManyWindowsWmiRoundTrip) {
  SharingSession session(small_host());
  AppHost& host = session.host();
  for (int i = 0; i < 40; ++i) {
    host.wm().create({(i % 8) * 40, (i / 8) * 40, 32, 32},
                     static_cast<GroupId>(1 + i % 3));
  }
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  session.run_for(sim_sec(1));
  EXPECT_EQ(conn.participant->windows().size(), 40u);
  // Group ids survive the wire.
  for (const auto& [id, rec] : conn.participant->windows()) {
    EXPECT_GE(rec.group_id, 1);
    EXPECT_LE(rec.group_id, 3);
  }
}

TEST(SessionEdge, EmptyDesktopSessionIsStable) {
  SharingSession session(small_host());
  auto& conn = session.add_tcp_participant({}, fast_link());
  session.host().start();
  session.run_for(sim_sec(2));
  // Nothing shared: the participant still gets WMI (empty) + the blank
  // refresh and no errors.
  EXPECT_EQ(conn.participant->windows().size(), 0u);
  EXPECT_EQ(conn.participant->stats().decode_errors, 0u);
}

}  // namespace
}  // namespace ads
