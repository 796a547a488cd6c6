// Participant lifecycle under churn: 16-bit ids never wrap into live state,
// the allocator refuses cleanly once every id is live, the AH's aggregate
// counters never run backwards when a participant leaves, and a departed
// participant's gauges are withdrawn.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "capture/apps.hpp"
#include "core/app_host.hpp"
#include "rtp/rtcp.hpp"

namespace ads {
namespace {

AppHostOptions small_host() {
  AppHostOptions opts;
  opts.screen_width = 160;
  opts.screen_height = 120;
  opts.frame_interval_us = sim_ms(100);
  opts.encode_threads = 0;
  return opts;
}

/// UDP endpoint recording the sequence number of every packet it is handed.
Endpoint recording_endpoint(std::vector<std::uint16_t>& seqs) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUdp;
  ep.send_packet_batch = [&seqs](std::span<const PacketView> pkts) {
    for (const PacketView& v : pkts) seqs.push_back(v.sequence());
    return pkts.size();
  };
  return ep;
}

TEST(ParticipantLifecycle, IdsSkipLiveParticipantsAfterWrap) {
  EventLoop loop;
  AppHost host(loop, small_host());
  const WindowId w = host.wm().create({0, 0, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(160, 120, 3));

  std::vector<std::uint16_t> kept_seqs;
  const ParticipantId kept = host.add_participant(recording_endpoint(kept_seqs));
  // 65,534 others join and leave: the 16-bit id counter wraps past 0.
  for (int i = 0; i < 0xFFFE; ++i) {
    host.remove_participant(host.add_participant(Endpoint{}));
  }

  std::vector<std::uint16_t> a_seqs;
  std::vector<std::uint16_t> b_seqs;
  const ParticipantId a = host.add_participant(recording_endpoint(a_seqs));
  const ParticipantId b = host.add_participant(recording_endpoint(b_seqs));
  EXPECT_NE(a, 0);
  EXPECT_NE(a, kept);
  EXPECT_NE(b, 0);
  EXPECT_NE(b, kept);
  EXPECT_NE(a, b);
  EXPECT_EQ(host.participant_count(), 3u);

  // The long-lived participant kept its transport: the next tick reaches it.
  host.on_uplink_packet(kept, PictureLossIndication{}.serialize());
  host.tick();
  EXPECT_FALSE(kept_seqs.empty());
}

TEST(ParticipantLifecycle, AllocatorRefusesOnceEveryIdIsLive) {
  EventLoop loop;
  AppHost host(loop, small_host());
  // Member aliases draw from the same 65,535 ids as participants.
  const ParticipantId group = host.add_participant(Endpoint{});
  for (int i = 1; i < 0xFFFF; ++i) host.add_member_alias(group);
  EXPECT_THROW(host.add_participant(Endpoint{}), std::length_error);
  EXPECT_THROW(host.add_member_alias(group), std::length_error);
  EXPECT_EQ(host.participant_count(), 1u);
}

TEST(ParticipantLifecycle, CountersNeverRunBackwardsWhenParticipantLeaves) {
  EventLoop loop;
  AppHostOptions opts = small_host();
  opts.retransmission_cache = 16;  // a few ticks of sends evict
  opts.link.adaptation.enabled = true;
  AppHost host(loop, opts);
  const WindowId w = host.wm().create({0, 0, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<VideoApp>(160, 120, 5));

  std::vector<std::uint16_t> seqs;
  const ParticipantId id = host.add_participant(recording_endpoint(seqs));
  host.on_uplink_packet(id, PictureLossIndication{}.serialize());
  for (int t = 0; t < 5; ++t) {
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }
  ASSERT_GT(seqs.size(), opts.retransmission_cache);
  // Serve a NACK: the newest packet is a hit, the oldest long evicted.
  host.on_uplink_packet(
      id, GenericNack::for_sequences(1, 0, {seqs.back(), seqs.front()}).serialize());
  // Heavy reported loss makes the rate loop decrease on the next tick.
  ReceiverReport rr;
  rr.ssrc = 1;
  ReportBlock block;
  block.fraction_lost = 128;
  rr.blocks.push_back(block);
  host.on_uplink_packet(id, rr.serialize());
  host.tick();

  const telemetry::Snapshot before = host.telemetry().snapshot();
  ASSERT_GT(before.counter("rtx.hits"), 0u);
  ASSERT_GT(before.counter("rtx.misses"), 0u);
  ASSERT_GT(before.counter("rtx.evictions"), 0u);
  ASSERT_GT(before.counter("rate.decreases"), 0u);

  host.remove_participant(id);
  const telemetry::Snapshot after = host.telemetry().snapshot();
  for (const auto& [name, value] : before.counters) {
    EXPECT_GE(after.counter(name), value) << name;
  }
}

TEST(ParticipantLifecycle, DepartedParticipantWithdrawsItsRateGauges) {
  // The rate.p<id>.* gauges describe a live participant's operating point;
  // once it leaves (removal or liveness eviction) they read 0, not the last
  // budget — even when it was the last participant.
  EventLoop loop;
  AppHostOptions opts = small_host();
  opts.link.adaptation.enabled = true;
  AppHost host(loop, opts);
  std::vector<std::uint16_t> seqs;
  const ParticipantId id = host.add_participant(recording_endpoint(seqs));
  host.tick();
  const std::string prefix = "rate.p" + std::to_string(id) + ".";
  const telemetry::Snapshot live = host.telemetry().snapshot();
  ASSERT_EQ(live.gauge(prefix + "budget_bps"), 2'000'000);
  ASSERT_EQ(live.gauge(prefix + "quality_step"), 2);

  host.remove_participant(id);
  ASSERT_EQ(host.participant_count(), 0u);
  const telemetry::Snapshot gone = host.telemetry().snapshot();
  EXPECT_EQ(gone.gauge(prefix + "budget_bps", -1), 0);
  EXPECT_EQ(gone.gauge(prefix + "quality_step", -1), 0);
  EXPECT_EQ(gone.gauge(prefix + "fps_divisor", -1), 0);
}

}  // namespace
}  // namespace ads
