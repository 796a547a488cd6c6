// Output-geometry integration (docs/TRANSCODE.md, E20): scaled and
// viewport-follow cohorts end to end — one encode per (geometry × rung)
// cohort per tick, scaled viewers converging to the box-filtered truth,
// HIP clicks mapping back to host pixels — plus the three regression
// sweeps of this change:
//  * S1: MoveRectangle replay is geometry-unsafe unless the move is exactly
//    divisible by the cohort scale factor (pre-fix the scaled replica
//    corrupted on misaligned scrolls);
//  * S2: the pointer overlay clamps at the right/bottom edge and is
//    re-sent after a host resolution change (pre-fix the overlay went
//    stale and out of bounds);
//  * S3: a joiner admitted in the same tick as a host geometry change must
//    never be served a stale-geometry refresh bundle.
#include <gtest/gtest.h>

#include <memory>

#include "capture/apps.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "rtp/rtcp.hpp"

namespace ads {
namespace {

AppHostOptions host_opts(std::int64_t w = 320, std::int64_t h = 240) {
  AppHostOptions opts;
  opts.screen_width = w;
  opts.screen_height = h;
  opts.frame_interval_us = sim_ms(100);
  opts.region_band_rows = 64;
  return opts;
}

UdpLinkConfig clean_link() {
  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 2000;
  return link;
}

constexpr transcode::OutputGeometry kQuarter{2, {}, false};
constexpr transcode::OutputGeometry kHalf{1, {}, false};

/// The participant's replica compared against the geometry-transformed
/// truth (what a scaled viewer should be rendering).
std::int64_t scaled_diff(const SharingSession::Connection& conn,
                         const Image& truth,
                         const transcode::OutputGeometry& geom) {
  const Image want = transcode::scale_frame(truth, geom);
  return diff_pixel_count(want,
                          conn.participant->screen().crop(want.bounds()));
}

TEST(TranscodeFlow, OneEncodePerGeometryRungCohortPerTick) {
  // Direct-host harness: five viewers across three device classes, all on
  // the same codec/MTU, admitted in one tick. The cohort planner must form
  // exactly one cohort per distinct geometry and encode each cohort's bands
  // once — extra encodes mean the geometry key leaked out of the plan.
  EventLoop loop;
  AppHostOptions opts = host_opts();
  AppHost host(loop, opts);
  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(320, 240, 3, 1'000'000));

  std::vector<ParticipantId> ids;
  for (int i = 0; i < 5; ++i) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUdp;
    ep.send_packet_batch = [](std::span<const PacketView> pkts) {
      return pkts.size();
    };
    ids.push_back(host.add_participant(std::move(ep)));
  }
  ASSERT_TRUE(host.set_participant_geometry(ids[2], kHalf));
  ASSERT_TRUE(host.set_participant_geometry(ids[3], kQuarter));
  ASSERT_TRUE(host.set_participant_geometry(ids[4], kQuarter));
  // Everybody demands a refresh in the same instant (§4.3 PLI join).
  const PictureLossIndication pli;
  for (ParticipantId id : ids) host.on_uplink_packet(id, pli.serialize());

  host.tick();  // admission tick: every viewer gets its full refresh

  // Three cohorts: identity ×2, half ×1, quarter ×2 — with 64-row bands on
  // a 320×240 screen that is 4 + 2 + 1 = 7 unique band encodes, and the
  // cohort members shared 12 − 7 = 5 of their 12 band requests.
  const AppHost::Stats& s = host.stats();
  EXPECT_EQ(s.fanout_cohorts, 3u);
  EXPECT_EQ(s.fanout_encodes_unique, 7u);
  EXPECT_EQ(s.fanout_encodes_shared, 5u);
  // The scaler materialised each non-identity geometry exactly once.
  EXPECT_EQ(host.scaler().stats().frames_scaled, 2u);

  // A static tick adds no encodes and no scaled frames.
  host.tick();
  EXPECT_EQ(host.stats().fanout_encodes_unique, 7u);
  EXPECT_EQ(host.scaler().stats().frames_scaled, 2u);

  // Per-class byte accounting saw every class, and the quarter cohort paid
  // far less than the full-resolution one (E20's point) despite having the
  // same number of viewers.
  EXPECT_GT(s.bytes_sent_full, 0u);
  EXPECT_GT(s.bytes_sent_half, 0u);
  EXPECT_GT(s.bytes_sent_quarter, 0u);
  EXPECT_LT(s.bytes_sent_quarter, s.bytes_sent_full / 2);
}

TEST(TranscodeFlow, ScaledViewerConvergesToBoxFilteredTruth) {
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 256, 192}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(256, 192, 5));

  auto& full = session.add_udp_participant({}, clean_link());
  auto& quarter = session.add_udp_participant({}, clean_link());
  ASSERT_TRUE(host.set_participant_geometry(quarter.id, kQuarter));
  host.start();
  full.participant->join();
  quarter.participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  const Image& truth = host.capturer().last_frame();
  EXPECT_EQ(diff_pixel_count(
                truth, full.participant->screen().crop(truth.bounds())),
            0);
  EXPECT_EQ(scaled_diff(quarter, truth, kQuarter), 0);
  EXPECT_EQ(quarter.participant->stats().decode_errors, 0u);
}

TEST(TranscodeFlow, ViewportFollowTracksTheFocusedWindow) {
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 128, 96}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(128, 96, 7, 1'000'000));

  auto& conn = session.add_udp_participant({}, clean_link());
  ASSERT_TRUE(
      host.set_participant_geometry(conn.id, {0, {}, true}));  // follow
  host.start();
  conn.participant->join();
  session.run_for(sim_sec(1));

  // The stream is the window's rect, origin at the window's top-left.
  {
    const Image& truth = host.capturer().last_frame();
    const Image want = truth.crop({0, 0, 128, 96});
    EXPECT_EQ(diff_pixel_count(want,
                               conn.participant->screen().crop(want.bounds())),
              0);
  }

  // Moving the window re-anchors the viewport; the viewer re-converges on
  // the new rect without a manual refresh.
  host.wm().move(w, {40, 30});
  session.run_for(sim_sec(1));
  host.stop();
  session.run_for(sim_sec(1));
  EXPECT_GT(host.stats().viewport_moves, 0u);
  EXPECT_GT(host.stats().bytes_sent_viewport, 0u);
  const Image& truth = host.capturer().last_frame();
  const Image want = truth.crop({40, 30, 128, 96});
  EXPECT_EQ(diff_pixel_count(want,
                             conn.participant->screen().crop(want.bounds())),
            0);
}

TEST(TranscodeFlow, HipClickFromScaledViewerMapsToHostPixel) {
  // S4 e2e: the quarter-res viewer clicks output pixel (25, 25); the AH
  // must inject the centre of the 4×4 host block — (102, 102), inside the
  // shared window — not the raw output coordinate (25, 25), which the §4.1
  // legitimacy check would reject.
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({50, 50, 100, 100}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(100, 100, 3, 1'000'000));
  std::vector<HipMessage> received;
  host.set_input_sink(
      [&](ParticipantId, const HipMessage& msg) { received.push_back(msg); });

  TcpLinkConfig link;
  link.down.bandwidth_bps = 50'000'000;
  link.down.send_buffer_bytes = 1024 * 1024;
  auto& conn = session.add_tcp_participant({}, link);
  ASSERT_TRUE(host.set_participant_geometry(conn.id, kQuarter));
  host.start();
  session.run_for(sim_ms(300));
  conn.participant->request_floor();
  session.run_for(sim_ms(200));
  ASSERT_TRUE(conn.participant->has_floor());

  conn.participant->mouse_press(25, 25, MouseButton::kLeft);
  session.run_for(sim_ms(200));
  ASSERT_EQ(received.size(), 1u);
  const auto& press = std::get<MousePressed>(received[0]);
  EXPECT_EQ(press.left, 102u);
  EXPECT_EQ(press.top, 102u);
  EXPECT_EQ(host.stats().hip_events_mapped, 1u);
  EXPECT_EQ(host.stats().hip_events_rejected_coords, 0u);
}

TEST(TranscodeFlow, HipClickUnderViewportFollowMapsThroughWindowOffset) {
  // Follow mode at half resolution: the stream is the focused window's
  // 100×100 rect scaled to 50×50. A click on output (10, 10) is host
  // (50 + 21, 50 + 21) — block centre inside the window.
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({50, 50, 100, 100}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(100, 100, 3, 1'000'000));
  std::vector<HipMessage> received;
  host.set_input_sink(
      [&](ParticipantId, const HipMessage& msg) { received.push_back(msg); });

  TcpLinkConfig link;
  link.down.bandwidth_bps = 50'000'000;
  link.down.send_buffer_bytes = 1024 * 1024;
  auto& conn = session.add_tcp_participant({}, link);
  ASSERT_TRUE(host.set_participant_geometry(conn.id, {1, {}, true}));
  host.start();
  session.run_for(sim_ms(300));
  conn.participant->request_floor();
  session.run_for(sim_ms(200));
  ASSERT_TRUE(conn.participant->has_floor());

  conn.participant->mouse_move(10, 10);
  session.run_for(sim_ms(200));
  ASSERT_EQ(received.size(), 1u);
  const auto& move = std::get<MouseMoved>(received[0]);
  EXPECT_EQ(move.left, 71u);
  EXPECT_EQ(move.top, 71u);
  EXPECT_EQ(host.stats().hip_events_mapped, 1u);
}

// --- S1: MoveRectangle divisibility gate ---------------------------------

TEST(TranscodeFlow, MisalignedScrollFallsBackToDamageEncodeUnderScaling) {
  // 10-pixel scroll against a factor-4 rung: 10 % 4 != 0, so replaying the
  // move in output space lands between scaled pixels. Pre-fix the AH sent
  // the MoveRectangle anyway (offsets rounded) and the scaled replica
  // diverged permanently; the gate must fall back to damage encode and
  // still converge bit-exactly.
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 256, 192}, 1);
  host.capturer().attach(w, std::make_unique<DocumentApp>(256, 192, 9,
                                                          /*pixels_per_tick=*/10));

  auto& conn = session.add_udp_participant({}, clean_link());
  ASSERT_TRUE(host.set_participant_geometry(conn.id, kQuarter));
  host.start();
  conn.participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  EXPECT_GT(host.stats().move_rects_geometry_skipped, 0u);
  EXPECT_EQ(host.stats().move_rectangles_sent, 0u);  // only blocked viewers
  EXPECT_EQ(scaled_diff(conn, host.capturer().last_frame(), kQuarter), 0);
  EXPECT_EQ(conn.participant->stats().decode_errors, 0u);
}

TEST(TranscodeFlow, AlignedScrollKeepsMoveRectanglesUnderScaling) {
  // 16-pixel scroll divides evenly by factor 4: the move replays in output
  // space (4-pixel scroll) and the scaled replica still converges.
  SharingSession session(host_opts());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 256, 192}, 1);
  host.capturer().attach(w, std::make_unique<DocumentApp>(256, 192, 9,
                                                          /*pixels_per_tick=*/16));

  auto& conn = session.add_udp_participant({}, clean_link());
  ASSERT_TRUE(host.set_participant_geometry(conn.id, kQuarter));
  host.start();
  conn.participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  EXPECT_GT(host.stats().move_rectangles_sent, 0u);
  EXPECT_EQ(scaled_diff(conn, host.capturer().last_frame(), kQuarter), 0);
  EXPECT_EQ(conn.participant->stats().decode_errors, 0u);
}

// --- S2: pointer overlay clamping and resize dirtiness -------------------

TEST(TranscodeFlow, PointerClampsAtEdgeAndSurvivesHostResize) {
  AppHostOptions opts = host_opts();
  opts.pointer_messages = true;
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(200, 150, 3, 1'000'000));

  TcpLinkConfig link;
  link.down.bandwidth_bps = 50'000'000;
  link.down.send_buffer_bytes = 2 * 1024 * 1024;
  auto& conn = session.add_tcp_participant({}, link);
  host.start();
  session.run_for(sim_ms(300));

  // Park the pointer past the bottom-right corner: the overlay must clamp
  // to the last on-screen pixel, not (width, height) one past it.
  host.set_pointer({5000, 5000});
  session.run_for(sim_ms(300));
  EXPECT_EQ(conn.participant->pointer(), (Point{319, 239}));

  // Shrink the host screen with no further set_pointer call: the overlay
  // is re-clamped into the new bounds and re-sent (pre-fix it stayed at
  // the stale (319, 239), outside the 160×120 frame).
  host.set_screen_size(160, 120);
  session.run_for(sim_ms(300));
  EXPECT_EQ(conn.participant->pointer(), (Point{159, 119}));
}

TEST(TranscodeFlow, PointerOverlayIsMappedIntoOutputSpace) {
  AppHostOptions opts = host_opts();
  opts.pointer_messages = true;
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 200, 150}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(200, 150, 3, 1'000'000));

  auto& conn = session.add_udp_participant({}, clean_link());
  ASSERT_TRUE(host.set_participant_geometry(conn.id, kQuarter));
  host.start();
  conn.participant->join();
  session.run_for(sim_ms(300));

  host.set_pointer({50, 60});
  session.run_for(sim_ms(300));
  // The quarter-res viewer renders the overlay in its own coordinate
  // system: (50/4, 60/4).
  EXPECT_EQ(conn.participant->pointer(), (Point{12, 15}));
}

// --- S3: same-tick joiner vs host geometry change ------------------------

TEST(TranscodeFlow, JoinerInResizeTickNeverGetsStaleGeometryBundle) {
  AppHostOptions opts = host_opts();
  opts.snapshot.enabled = true;
  opts.snapshot.refresh_interval_us = sim_ms(300);
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 128, 96}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(128, 96, 2, 1'000'000));

  auto& a = session.add_udp_participant({}, clean_link());
  auto& b = session.add_udp_participant({}, clean_link());
  const PictureLossIndication pli;
  auto step = [&](SimTime dur = sim_ms(100)) {
    host.tick();
    session.run_for(dur);
  };

  step();  // initial paint
  host.on_uplink_packet(a.id, pli.serialize());
  step();  // A admitted: bundle 1 built against the 320×240 frame
  ASSERT_EQ(host.snapshot_service().stats().bundles_built, 1u);

  // B's demand and the host resolution change land in the same tick. The
  // hard invalidation must run before refresh distribution, so B is served
  // a bundle encoded from the 160×120 frame — pre-fix B received the live
  // 320×240 checkpoint and rendered a stale-geometry screen.
  host.on_uplink_packet(b.id, pli.serialize());
  host.set_screen_size(160, 120);
  step();
  for (int i = 0; i < 4; ++i) step();
  session.run_for(sim_ms(500));

  EXPECT_GE(host.snapshot_service().stats().bundles_built, 2u);
  const Image& truth = host.capturer().last_frame();
  ASSERT_EQ(truth.width(), 160);
  ASSERT_EQ(truth.height(), 120);
  for (auto* conn : {&a, &b}) {
    EXPECT_EQ(diff_pixel_count(
                  truth, conn->participant->screen().crop(truth.bounds())),
              0);
    EXPECT_EQ(conn->participant->stats().decode_errors, 0u);
  }
}

}  // namespace
}  // namespace ads
