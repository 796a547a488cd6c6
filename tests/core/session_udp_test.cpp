// End-to-end integration over the simulated UDP transport (§4.3): PLI join
// handshake, loss repair via Generic NACK retransmissions, PLI fallback,
// and convergence under lossy conditions.
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

UdpLinkConfig clean_link() {
  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 2000;
  return link;
}

TEST(SessionUdp, JoinPliTriggersWmiAndFullRefresh) {
  // §4.3: "participants using UDP send an RCTP-based feedback message,
  // Picture Loss Indication (PLI), after joining the session. The AH
  // prepares and transmits the windows' state information and image of the
  // whole shared region after receiving a PLI message."
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({10, 10, 64, 64}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(64, 64, 3));
  session.host().start();
  session.run_for(sim_ms(300));  // stream already running when we connect
  auto& conn = session.add_udp_participant({}, clean_link());
  session.run_for(sim_ms(300));
  // Incremental traffic is fanned out regardless, but no full-screen image
  // has been delivered yet (the refresh arrives as full-width bands; sum
  // their area to detect it).
  auto full_width_area = [&](const std::vector<Participant::DeliveryRecord>& ds) {
    std::int64_t area = 0;
    for (const auto& d : ds) {
      if (d.region.width == 320) area += d.region.area();
    }
    return area;
  };
  EXPECT_LT(full_width_area(conn.participant->drain_deliveries()), 320 * 240);

  conn.participant->join();
  session.run_for(sim_ms(500));
  EXPECT_GE(conn.participant->stats().wmi_received, 1u);
  EXPECT_GE(full_width_area(conn.participant->drain_deliveries()), 320 * 240);
}

TEST(SessionUdp, CleanLinkConverges) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({10, 10, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3));
  auto& conn = session.add_udp_participant({}, clean_link());
  conn.participant->join();
  session.host().start();
  session.run_for(sim_sec(2));
  session.host().stop();
  session.run_for(sim_sec(1));

  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(SessionUdp, LossRepairedByNackRetransmission) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 160, 120}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 5));

  UdpLinkConfig lossy = clean_link();
  lossy.down.loss = 0.10;
  lossy.down.seed = 77;
  ParticipantOptions popts;
  popts.send_nacks = true;
  auto& conn = session.add_udp_participant(popts, lossy);
  conn.participant->join();
  session.host().start();
  session.run_for(sim_sec(5));
  session.host().stop();
  session.run_for(sim_sec(2));

  EXPECT_GT(conn.participant->stats().nacks_sent, 0u);
  EXPECT_GT(session.host().stats().retransmissions_sent, 0u);
  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(SessionUdp, WithoutNacksPliRecoversEventually) {
  AppHostOptions host_opts = small_host();
  host_opts.retransmissions = false;
  SharingSession session(host_opts);
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));

  UdpLinkConfig lossy = clean_link();
  lossy.down.loss = 0.20;
  lossy.down.seed = 99;
  ParticipantOptions popts;
  popts.send_nacks = false;
  auto& conn = session.add_udp_participant(popts, lossy);
  conn.participant->join();
  session.host().start();
  // Lossy phase: gaps appear and (with NACKs off) must be repaired by PLI.
  session.run_for(sim_sec(4));
  EXPECT_GT(conn.participant->stats().plis_sent, 1u);  // join + recoveries
  EXPECT_GT(conn.participant->stats().gaps_skipped, 0u);

  // Heal the link so the final PLI refresh lands, then verify convergence.
  conn.down_udp->set_loss(0.0);
  session.run_for(sim_sec(1));
  session.host().stop();
  session.run_for(sim_sec(1));

  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(SessionUdp, ReorderingToleratedViaReorderBuffer) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));

  UdpLinkConfig jittery = clean_link();
  jittery.down.jitter_us = 30'000;  // heavy reordering
  jittery.down.seed = 55;
  auto& conn = session.add_udp_participant({}, jittery);
  conn.participant->join();
  session.host().start();
  session.run_for(sim_sec(3));
  session.host().stop();
  session.run_for(sim_sec(1));

  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  EXPECT_EQ(conn.participant->stats().decode_errors, 0u);
}

TEST(SessionUdp, LateJoinerCatchesUpViaPli) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({20, 20, 100, 80}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(100, 80, 11, 1000));
  session.host().start();

  // Let the session run before the second participant joins.
  auto& early = session.add_udp_participant({}, clean_link());
  early.participant->join();
  session.run_for(sim_sec(2));

  auto& late = session.add_udp_participant({}, clean_link());
  session.run_for(sim_ms(300));
  EXPECT_EQ(late.participant->stats().region_updates, 0u);
  late.participant->join();
  session.run_for(sim_sec(1));
  session.host().stop();
  session.run_for(sim_sec(1));

  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      late.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  EXPECT_EQ(late.participant->windows().size(), 1u);
}

TEST(SessionUdp, MixedTcpAndUdpParticipantsInOneSession) {
  // §4.2: "The AH can share an application to TCP participants, UDP
  // participants ... in the same sharing session."
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 96, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(96, 96, 3));

  auto& udp = session.add_udp_participant({}, clean_link());
  TcpLinkConfig tcp_link;
  tcp_link.down.bandwidth_bps = 50'000'000;
  tcp_link.down.send_buffer_bytes = 1024 * 1024;
  auto& tcp = session.add_tcp_participant({}, tcp_link);
  udp.participant->join();
  session.host().start();
  session.run_for(sim_sec(2));
  session.host().stop();
  session.run_for(sim_sec(1));

  const Image& truth = session.host().capturer().last_frame();
  for (auto* conn : {&udp, &tcp}) {
    const Image replica =
        conn->participant->screen().crop({0, 0, truth.width(), truth.height()});
    EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  }
}

}  // namespace
}  // namespace ads
