// Multicast sharing integration (draft §4.2/§4.3): one AH stream fanned out
// to several members, NACK repair via the group, per-member floor control,
// and NACK-storm randomisation.
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

UdpChannelOptions member_link(std::uint64_t seed, double loss = 0.0) {
  UdpChannelOptions opts;
  opts.delay_us = 15'000;
  opts.bandwidth_bps = 50'000'000;
  opts.loss = loss;
  opts.seed = seed;
  return opts;
}

TEST(MulticastSession, AllMembersConverge) {
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(160, 120, 3));

  auto& mc = session.add_multicast_session();
  auto& m1 = session.add_multicast_member(mc, {}, member_link(21));
  auto& m2 = session.add_multicast_member(mc, {}, member_link(22));
  auto& m3 = session.add_multicast_member(mc, {}, member_link(23));
  m1.participant->join();

  host.start();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  const Image& truth = host.capturer().last_frame();
  for (auto* m : {&m1, &m2, &m3}) {
    const Image replica =
        m->participant->screen().crop({0, 0, truth.width(), truth.height()});
    EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  }
}

TEST(MulticastSession, EncodeOnceSendOnce) {
  // The AH treats the whole group as one participant: region updates are
  // encoded and transmitted once regardless of member count.
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 5));

  auto& mc = session.add_multicast_session();
  for (int i = 0; i < 8; ++i) session.add_multicast_member(mc, {}, member_link(30 + i));
  mc.members.front()->participant->join();
  host.start();
  session.run_for(sim_sec(2));

  EXPECT_EQ(host.participant_count(), 1u);  // one stream state for the group
  // Each member saw roughly what the group carried — not 8x.
  const auto group_sent = mc.group->datagrams_sent();
  for (const auto& m : mc.members) {
    EXPECT_LE(m->participant->stats().rtp_packets, group_sent);
  }
}

TEST(MulticastSession, PliFromOneMemberRefreshesGroup) {
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(160, 120, 7, 1000));

  auto& mc = session.add_multicast_session();
  auto& early = session.add_multicast_member(mc, {}, member_link(41));
  early.participant->join();
  host.start();
  session.run_for(sim_sec(2));

  // A late member joins; its PLI causes a group-wide refresh that also
  // reaches (and is harmless for) the early member.
  auto& late = session.add_multicast_member(mc, {}, member_link(42));
  late.participant->join();
  session.run_for(sim_sec(1));
  host.stop();
  session.run_for(sim_sec(1));

  const Image& truth = host.capturer().last_frame();
  for (auto* m : {&early, &late}) {
    const Image replica =
        m->participant->screen().crop({0, 0, truth.width(), truth.height()});
    EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  }
}

TEST(MulticastSession, NackRepairHealsLossyMember) {
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 5));

  auto& mc = session.add_multicast_session();
  auto& clean = session.add_multicast_member(mc, {}, member_link(51));
  auto& lossy = session.add_multicast_member(mc, {}, member_link(52, 0.10));
  clean.participant->join();
  host.start();
  session.run_for(sim_sec(4));
  mc.group->member(1).set_loss(0.0);
  session.run_for(sim_sec(1));
  host.stop();
  session.run_for(sim_sec(1));

  EXPECT_GT(lossy.participant->stats().nacks_sent, 0u);
  EXPECT_GT(host.stats().retransmissions_sent, 0u);
  const Image& truth = host.capturer().last_frame();
  for (auto* m : {&clean, &lossy}) {
    const Image replica =
        m->participant->screen().crop({0, 0, truth.width(), truth.height()});
    EXPECT_EQ(diff_pixel_count(truth, replica), 0);
  }
}

TEST(MulticastSession, NackJitterDesynchronisesMembers) {
  // §5.3.2 storm avoidance: members with shared loss should not all NACK at
  // the same instant. With per-member random delay, the first NACK's repair
  // (multicast to the group) suppresses most other members' NACKs.
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 5));

  auto& mc = session.add_multicast_session();
  std::vector<SharingSession::MulticastMember*> members;
  for (int i = 0; i < 6; ++i) {
    ParticipantOptions popts;
    popts.seed = 100 + static_cast<std::uint64_t>(i);
    // nack_jitter_us defaults to 30 ms for multicast members (session).
    members.push_back(
        &session.add_multicast_member(mc, popts, member_link(60 + i, 0.10)));
  }
  members.front()->participant->join();
  host.start();
  session.run_for(sim_sec(4));

  std::uint64_t total_nacks = 0;
  for (auto* m : members) total_nacks += m->participant->stats().nacks_sent;
  // All members share the same upstream loss pattern per member link is
  // independent, but repairs are multicast: total NACK volume must stay far
  // below members * per-member-loss events.
  EXPECT_GT(total_nacks, 0u);
  EXPECT_LT(total_nacks, 6u * host.stats().retransmissions_sent + 200);
}

TEST(MulticastSession, FloorControlPerMemberOverMulticast) {
  SharingSession session(small_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 200, 150}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(200, 150, 3));
  int accepted = 0;
  host.set_input_sink([&](ParticipantId, const HipMessage&) { ++accepted; });

  auto& mc = session.add_multicast_session();
  auto& m1 = session.add_multicast_member(mc, {}, member_link(71));
  auto& m2 = session.add_multicast_member(mc, {}, member_link(72));
  m1.participant->join();
  host.start();
  session.run_for(sim_ms(500));

  m1.participant->request_floor();
  session.run_for(sim_ms(300));
  EXPECT_TRUE(m1.participant->has_floor());
  EXPECT_FALSE(m2.participant->has_floor());  // status filtered by user_id

  m1.participant->mouse_move(50, 50);
  m2.participant->mouse_move(50, 50);  // no floor: rejected
  session.run_for(sim_ms(300));
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(host.stats().hip_events_rejected_floor, 1u);
}

}  // namespace
}  // namespace ads
