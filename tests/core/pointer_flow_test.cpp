// MousePointerInfo end-to-end (draft §5.2.4): explicit pointer messages,
// icon persistence, and the late-joiner pointer requirement.
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "image/metrics.hpp"

namespace ads {
namespace {

AppHostOptions host_opts() {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  opts.pointer_messages = true;
  return opts;
}

TcpLinkConfig fast_link() {
  TcpLinkConfig link;
  link.down.bandwidth_bps = 50'000'000;
  link.down.send_buffer_bytes = 2 * 1024 * 1024;
  return link;
}

TEST(PointerFlow, PositionUpdatesReachParticipant) {
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(200, 150, 3));
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  session.run_for(sim_ms(300));

  host.set_pointer({123, 45});
  session.run_for(sim_ms(300));
  EXPECT_EQ(conn.participant->pointer(), (Point{123, 45}));
  EXPECT_GT(conn.participant->stats().pointer_updates, 0u);
}

TEST(PointerFlow, IconTransmittedOnceAndStored) {
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(200, 150, 3));
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  session.run_for(sim_ms(300));

  Image icon(6, 9, Pixel{255, 0, 0, 255});
  host.set_pointer({10, 10}, &icon);
  session.run_for(sim_ms(300));
  // "The participant MUST store and use this image until a new image
  // arrives from the AH."
  EXPECT_EQ(diff_pixel_count(conn.participant->pointer_icon(), icon), 0);

  // Subsequent position-only updates keep the stored icon.
  host.set_pointer({50, 60});
  session.run_for(sim_ms(300));
  EXPECT_EQ(conn.participant->pointer(), (Point{50, 60}));
  EXPECT_EQ(diff_pixel_count(conn.participant->pointer_icon(), icon), 0);
}

TEST(PointerFlow, LateJoinerLearnsPointerStateViaRefresh) {
  // §5.2.4: the AH "MUST inform the late joiners about the current position
  // and image of mouse pointer."
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(200, 150, 3));
  host.start();

  Image icon(5, 7, Pixel{0, 200, 0, 255});
  host.set_pointer({77, 88}, &icon);
  session.run_for(sim_sec(1));  // pointer state long since transmitted

  UdpLinkConfig link;
  link.down.delay_us = 5000;
  link.up.delay_us = 5000;
  auto& late = session.add_udp_participant({}, link);
  late.participant->join();
  session.run_for(sim_ms(500));

  EXPECT_EQ(late.participant->pointer(), (Point{77, 88}));
  EXPECT_EQ(diff_pixel_count(late.participant->pointer_icon(), icon), 0);
}

TEST(PointerFlow, DisabledPointerModelSendsNothing) {
  // §4.2: "Some AHs may transmit pointer images inside the RegionUpdate
  // messages, so they may not need MousePointerInfo message."
  AppHostOptions opts = host_opts();
  opts.pointer_messages = false;
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(200, 150, 3));
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  session.run_for(sim_ms(300));
  host.set_pointer({40, 40});
  session.run_for(sim_ms(300));
  EXPECT_EQ(conn.participant->stats().pointer_updates, 0u);
  EXPECT_EQ(host.stats().pointer_msgs_sent, 0u);
}

TEST(PointerFlow, BacklogSkippedParticipantStillGetsPointerUpdate) {
  // Regression: pointer dirtiness used to be session-global and cleared
  // after one distribute pass, so a participant held back by the §7
  // backlog gate during the pointer move never received it.
  EventLoop loop;
  AppHost host(loop, host_opts());
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(200, 150, 3));

  ParticipantOptions popts;
  popts.transport = ParticipantOptions::Transport::kTcp;
  Participant part(loop, popts);

  std::size_t scripted_backlog = 0;
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.write_gather = [&part](std::span<const BytesView> parts) {
    std::size_t n = 0;
    for (const BytesView& data : parts) {
      part.on_stream_bytes(data);
      n += data.size();
    }
    return n;
  };
  ep.backlog = [&scripted_backlog] { return scripted_backlog; };
  host.add_participant(std::move(ep));

  host.tick();  // late-join WMI + full refresh + initial pointer

  // The §7 gate holds the participant back while the pointer moves.
  scripted_backlog = host.options().link.backlog_limit + 1;
  host.set_pointer({55, 66});
  host.tick();
  host.tick();
  ASSERT_NE(part.pointer(), (Point{55, 66}));  // still skipped

  // Backlog drains: the catch-up frame must deliver the pointer update.
  scripted_backlog = 0;
  host.tick();
  EXPECT_EQ(part.pointer(), (Point{55, 66}));
}

TEST(PointerFlow, PointerMovesDoNotDisturbScreenConvergence) {
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(200, 150, 5));
  auto& conn = session.add_tcp_participant({}, fast_link());
  host.start();
  for (int i = 0; i < 20; ++i) {
    host.set_pointer({i * 10, i * 7});
    session.run_for(sim_ms(100));
  }
  host.stop();
  session.run_for(sim_sec(1));
  const Image& truth = host.capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

}  // namespace
}  // namespace ads
