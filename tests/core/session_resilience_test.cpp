// Session-level fault recovery: hard TCP drops, reconnect + resync through
// the late-join path, mid-frame disconnect safety for the RFC 4571 parsers,
// and liveness eviction working together with reconnection.
#include <gtest/gtest.h>

#include <set>

#include "core/session.hpp"
#include "image/metrics.hpp"
#include "rtp/packet_classify.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"

namespace ads {
namespace {

AppHostOptions small_host() {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  return opts;
}

TcpLinkConfig fast_tcp() {
  TcpLinkConfig link;
  link.down.bandwidth_bps = 50'000'000;
  link.down.send_buffer_bytes = 1024 * 1024;
  link.up.bandwidth_bps = 10'000'000;
  return link;
}

void expect_converged(SharingSession& session,
                      const SharingSession::Connection& conn) {
  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

TEST(SessionResilience, TcpDropThenReconnectResyncsViaLateJoinPath) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 160, 120}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 5));

  auto& conn = session.add_tcp_participant({}, fast_tcp());
  const ParticipantId original_id = conn.id;
  session.host().start();
  session.run_for(sim_sec(1));
  const std::uint64_t updates_before = conn.participant->stats().region_updates;
  EXPECT_GT(updates_before, 0u);

  // Hard drop: both directions die, in-flight data is lost.
  session.drop_tcp(conn);
  session.run_for(sim_sec(1));
  // The link is down; nothing new arrives.
  EXPECT_TRUE(conn.down_tcp->down());

  session.reconnect_tcp(conn, fast_tcp());
  EXPECT_EQ(conn.id, original_id);  // identity survives the reconnect
  session.run_for(sim_sec(2));
  session.host().stop();
  session.run_for(sim_sec(1));

  const auto& st = conn.participant->stats();
  EXPECT_EQ(st.transport_resets, 1u);
  // §4.4 resync: the fresh registration re-sent WMI + full refresh.
  EXPECT_GE(st.wmi_received, 2u);
  expect_converged(session, conn);

  auto snap = session.telemetry().snapshot();
  EXPECT_EQ(snap.counter("recovery.dropped_links"), 1u);
  EXPECT_EQ(snap.counter("recovery.reconnects"), 1u);
  EXPECT_EQ(snap.counter("participant.transport_resets"), 1u);
  EXPECT_GT(snap.counter("net.tcp.bytes_lost_on_drop"), 0u);
}

TEST(SessionResilience, MidFrameDisconnectDoesNotDesyncUplinkParser) {
  // Force the uplink into a state where a partially-written RFC 4571 frame
  // sits in the uplink egress carry (and its prefix in the AH's deframer),
  // then drop and reconnect. Neither side may misparse the new byte stream.
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 96, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(96, 96, 3));

  TcpLinkConfig link = fast_tcp();
  link.up.bandwidth_bps = 200'000;        // slow uplink...
  link.up.send_buffer_bytes = 512;        // ...with a tiny send buffer
  auto& conn = session.add_tcp_participant({}, link);
  session.host().start();
  session.run_for(sim_ms(500));

  // Burst of HIP traffic: far more than the uplink accepts, so a frame is
  // guaranteed to be torn at the send-buffer boundary.
  for (int i = 0; i < 40; ++i) {
    conn.participant->mouse_move(10 + static_cast<std::uint32_t>(i), 20);
  }
  EXPECT_GT(conn.up_egress.carry_bytes(), 0u);  // partial frame stuck in the carry
  session.run_for(sim_ms(50));          // its prefix reaches the AH

  session.drop_tcp(conn);
  session.run_for(sim_ms(300));
  session.reconnect_tcp(conn, fast_tcp());
  EXPECT_EQ(conn.up_egress.carry_bytes(), 0u);  // the torn frame died with the link

  // Fresh HIP traffic over the new stream must parse cleanly.
  for (int i = 0; i < 10; ++i) {
    conn.participant->mouse_move(50 + static_cast<std::uint32_t>(i), 60);
  }
  session.run_for(sim_sec(1));
  session.host().stop();
  session.run_for(sim_sec(1));

  EXPECT_EQ(session.host().stats().hip_parse_errors, 0u);
  // The post-reconnect events made it through the floor gate's classifier
  // (rejected by BFCP, but structurally parsed).
  EXPECT_GT(session.host().stats().hip_events_rejected_floor, 0u);
  expect_converged(session, conn);
}

TEST(SessionResilience, FloorGrantSurvivesReconnect) {
  SharingSession session(small_host());
  const WindowId w = session.host().wm().create({0, 0, 96, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(96, 96, 3));

  auto& conn = session.add_tcp_participant({}, fast_tcp());
  session.host().start();
  session.run_for(sim_ms(300));
  conn.participant->request_floor();
  session.run_for(sim_ms(300));
  ASSERT_TRUE(conn.participant->has_floor());

  session.drop_tcp(conn);
  session.run_for(sim_ms(200));
  session.reconnect_tcp(conn, fast_tcp());
  session.run_for(sim_ms(300));

  // Same ParticipantId, so the BFCP floor grant still applies: HIP events
  // inside the shared window are accepted, not floor-rejected.
  const std::uint64_t rejected_before =
      session.host().stats().hip_events_rejected_floor;
  conn.participant->mouse_move(10, 10);
  session.run_for(sim_ms(300));
  session.host().stop();
  session.run_for(sim_ms(200));
  EXPECT_GT(session.host().stats().hip_events_accepted, 0u);
  EXPECT_EQ(session.host().stats().hip_events_rejected_floor, rejected_before);
}

TEST(SessionResilience, DroppedTcpParticipantIsEvictedThenRevivedByReconnect) {
  AppHostOptions host_opts = small_host();
  host_opts.stale_after_us = sim_ms(1500);
  host_opts.evict_after_us = sim_sec(3);
  SharingSession session(host_opts);
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3));

  auto& conn = session.add_tcp_participant({}, fast_tcp());
  const ParticipantId id = conn.id;
  session.host().start();
  session.run_for(sim_sec(1));
  ASSERT_EQ(session.host().participant_count(), 1u);

  session.drop_tcp(conn);
  session.run_for(sim_sec(4));  // silence -> stale -> evicted
  EXPECT_EQ(session.host().participant_count(), 0u);
  EXPECT_EQ(session.evicted_connections(), 1u);
  EXPECT_EQ(conn.down_tcp, nullptr);  // session reclaimed the channels

  session.reconnect_tcp(conn, fast_tcp());
  EXPECT_EQ(conn.id, id);  // the old id was free again
  session.run_for(sim_sec(2));
  session.host().stop();
  session.run_for(sim_sec(1));

  EXPECT_EQ(session.host().participant_count(), 1u);
  expect_converged(session, conn);
  auto snap = session.telemetry().snapshot();
  EXPECT_EQ(snap.counter("liveness.evictions"), 1u);
  EXPECT_EQ(snap.counter("recovery.reconnects"), 1u);
}

/// A session whose TCP viewer `conn` goes silent and is evicted, after
/// which the AH's 16-bit id counter wraps so that the next newcomer is
/// issued the evicted connection's id.
struct EvictedViewer {
  EvictedViewer() : session(options()) {
    const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
    session.host().capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3));
    conn = &session.add_tcp_participant({}, fast_tcp());
    evicted_id = conn->id;
    session.host().start();
    session.run_for(sim_sec(1));
    session.drop_tcp(*conn);
    session.run_for(sim_sec(4));  // silence -> stale -> evicted
    EXPECT_EQ(session.host().participant_count(), 0u);
    session.host().stop();
    // 65,534 join/leave cycles wrap the id counter.
    for (int i = 0; i < 0xFFFE; ++i) {
      session.host().remove_participant(session.host().add_participant(Endpoint{}));
    }
  }

  static AppHostOptions options() {
    AppHostOptions opts = small_host();
    opts.stale_after_us = sim_ms(1500);
    opts.evict_after_us = sim_sec(3);
    return opts;
  }

  SharingSession session;
  SharingSession::Connection* conn = nullptr;
  ParticipantId evicted_id = 0;
};

TEST(SessionResilience, ReconnectAfterEvictionKeepsReissuedIdHolder) {
  EvictedViewer v;
  AppHost& host = v.session.host();
  std::size_t newcomer_packets = 0;
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUdp;
  ep.send_packet_batch = [&newcomer_packets](std::span<const PacketView> pkts) {
    newcomer_packets += pkts.size();
    return pkts.size();
  };
  const ParticipantId newcomer = host.add_participant(std::move(ep));
  ASSERT_EQ(newcomer, v.evicted_id);

  // The reconnect must not deregister the id's new holder.
  v.session.reconnect_tcp(*v.conn, fast_tcp());
  EXPECT_NE(v.conn->id, newcomer);
  EXPECT_EQ(host.participant_count(), 2u);
  host.on_uplink_packet(newcomer, PictureLossIndication{}.serialize());
  host.tick();
  EXPECT_GT(newcomer_packets, 0u);
}

TEST(SessionResilience, ReconnectWithFreshIdAdoptsItAsBfcpIdentity) {
  EvictedViewer v;
  AppHost& host = v.session.host();
  ASSERT_EQ(host.add_participant(Endpoint{}), v.evicted_id);
  v.session.reconnect_tcp(*v.conn, fast_tcp());
  ASSERT_NE(v.conn->id, v.evicted_id);

  // The AH grants the floor to the transport identity (the fresh id) and
  // addresses its FloorRequestStatus to it; the participant must accept it.
  host.start();
  v.conn->participant->request_floor();
  v.session.run_for(sim_sec(1));
  EXPECT_TRUE(v.conn->participant->has_floor());
  EXPECT_FALSE(v.conn->participant->floor_pending());
  EXPECT_EQ(v.conn->participant->hid_status(), HidStatus::kAllAllowed);
}

TEST(SessionResilience, NackRetriesAreBoundedPerSequenceAndEscalateToPli) {
  // The AH never retransmits, so every NACK is futile: each missing
  // sequence's repair deadline runs out (no repair time is ever measured,
  // so after one NACK it waits out the blackout cap) and the participant
  // climbs the ladder to a PLI full refresh.
  AppHostOptions host_opts = small_host();
  host_opts.retransmissions = false;
  SharingSession session(host_opts);
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));

  UdpLinkConfig lossy;
  lossy.down.delay_us = 2000;
  lossy.down.bandwidth_bps = 50'000'000;
  lossy.down.loss = 0.15;
  lossy.down.seed = 41;
  lossy.up.delay_us = 2000;
  ParticipantOptions popts;
  popts.send_nacks = true;
  auto& conn = session.add_udp_participant(popts, lossy);
  conn.participant->join();
  session.host().start();
  session.run_for(sim_sec(4));

  const auto& st = conn.participant->stats();
  EXPECT_GT(st.nacks_sent, 0u);
  EXPECT_GT(st.nack_escalations, 0u);
  EXPECT_GT(st.plis_sent, 1u);  // join + at least one escalation refresh

  // Heal the link; the escalation refreshes must converge the replica.
  conn.down_udp->set_loss(0.0);
  session.run_for(sim_sec(2));
  session.host().stop();
  session.run_for(sim_sec(1));
  expect_converged(session, conn);

  auto snap = session.telemetry().snapshot();
  EXPECT_EQ(snap.counter("participant.nack_escalations"), st.nack_escalations);
}

UdpLinkConfig fast_udp() {
  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 2000;
  return link;
}

TEST(SessionResilience, IdleScreenWithSenderReportsRequestsNoRefresh) {
  // The screen never changes after the first slide, so media stops while
  // the AH keeps ticking and sending SRs. An SR whose packet count shows
  // nothing outstanding is activity, not starvation, for a viewer present
  // from the start and for relay and multicast viewers that join
  // mid-stream alike.
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 128, 96}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3, 1000));
  auto& direct = session.add_udp_participant({}, fast_udp());
  direct.participant->join();
  host.start();
  session.run_for(sim_sec(3));

  auto& relay = session.add_relay({}, fast_udp());
  auto& leaf = session.add_relay_viewer(relay, {}, fast_udp());
  leaf.participant->join();
  auto& mc = session.add_multicast_session();
  UdpChannelOptions member_down = fast_udp().down;
  auto& member = session.add_multicast_member(mc, {}, member_down);
  member.participant->join();
  session.run_for(sim_sec(10));

  for (const Participant* p : {direct.participant.get(), leaf.participant.get(),
                               member.participant.get()}) {
    EXPECT_GT(p->stats().srs_received, 5u);
    EXPECT_EQ(p->stats().starvation_plis, 0u);
    EXPECT_EQ(p->stats().plis_sent, 1u);  // the join
    EXPECT_EQ(p->stats().nacks_sent, 0u);
  }
  expect_converged(session, direct);
}

TEST(SessionResilience, SenderReportCountRepairsALostTailByNack) {
  // The whole burst of a slide change is lost and nothing follows it, so
  // no later packet reveals the gap. The next SR's packet count does: the
  // tail is NACKed and repaired within one SR interval, without a refresh.
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 128, 96}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3, 20));
  auto& conn = session.add_udp_participant({}, fast_udp());
  Participant* p = conn.participant.get();
  std::set<std::uint16_t> dropped;
  conn.down_udp->set_receiver([&session, &dropped, p](Bytes d) {
    const SimTime now = session.loop().now();
    if (classify_packet(d) == PacketKind::kRtp && now >= sim_ms(1500) &&
        now < sim_ms(2500)) {
      auto pkt = RtpPacket::parse(d);
      // Each packet's first copy is lost; its retransmission gets through.
      if (pkt.ok() && dropped.insert(pkt->sequence).second) return;
    }
    p->on_datagram(d);
  });
  p->join();
  host.start();
  session.loop().run_until(sim_ms(3200));

  ASSERT_FALSE(dropped.empty());
  EXPECT_GT(p->stats().nacks_sent, 0u);
  EXPECT_EQ(p->stats().plis_sent, 1u);  // the join
  EXPECT_EQ(p->stats().gaps_skipped, 0u);
  EXPECT_EQ(host.stats().retransmissions_sent, dropped.size());
  expect_converged(session, conn);
}

TEST(SessionResilience, TrueSilenceStillClimbsTheWatchdogLadder) {
  // No media and no SR: the starvation watchdog requests a refresh, then
  // again after the doubled delay.
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 128, 96}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3, 1000));
  auto& conn = session.add_udp_participant({}, fast_udp());
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(1));
  conn.down_udp->set_loss(1.0);
  session.run_for(sim_sec(10));
  EXPECT_GE(conn.participant->stats().starvation_plis, 2u);
}

TEST(SessionResilience, UdpUplinkSilenceMarksStaleWithoutEvictionWhenDisabled) {
  // stale_after set, evict_after left 0: the AH flags the peer but must not
  // remove it — and the flag clears when the uplink resumes.
  AppHostOptions host_opts = small_host();
  host_opts.stale_after_us = sim_sec(1);
  SharingSession session(host_opts);
  const WindowId w = session.host().wm().create({0, 0, 96, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(96, 96, 3));

  ParticipantOptions popts;
  popts.rr_interval_us = 0;           // no periodic uplink chatter
  popts.starvation_timeout_us = 0;    // no watchdog PLIs either
  auto& conn = session.add_udp_participant(popts, {});
  conn.participant->join();
  session.host().start();
  session.run_for(sim_ms(2500));
  EXPECT_TRUE(session.host().participant_stale(conn.id));
  EXPECT_EQ(session.host().participant_count(), 1u);

  conn.participant->request_refresh();  // uplink activity again
  session.run_for(sim_ms(300));
  EXPECT_FALSE(session.host().participant_stale(conn.id));
  session.host().stop();
  session.run_for(sim_ms(500));
}

}  // namespace
}  // namespace ads
